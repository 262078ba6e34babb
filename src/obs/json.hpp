/**
 * @file
 * Minimal JSON support for the observability subsystem: a streaming writer
 * (reports, Chrome traces) and a small recursive-descent parser used for
 * schema validation and round-trip tests. No external dependencies.
 */
#ifndef NUCALOCK_OBS_JSON_HPP
#define NUCALOCK_OBS_JSON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace nucalock::obs {

/** Escape @p text for inclusion in a JSON string literal (no quotes). */
std::string json_escape(std::string_view text);

/**
 * Streaming JSON writer. Keys and structure are the caller's
 * responsibility order-wise; the writer tracks nesting to place commas and
 * (when pretty) indentation. Doubles are emitted with enough precision to
 * round-trip; NaN/Inf degrade to null (JSON has no spelling for them).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream& os, bool pretty = true);

    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();

    /** Key inside an object; must be followed by a value or begin_*. */
    JsonWriter& key(std::string_view name);

    JsonWriter& value(std::string_view text);
    JsonWriter& value(const char* text);
    JsonWriter& value(double number);
    JsonWriter& value(std::uint64_t number);
    JsonWriter& value(std::int64_t number);
    JsonWriter& value(int number);
    JsonWriter& value(bool flag);
    JsonWriter& null();

    /** Convenience: key + value. */
    template <typename T>
    JsonWriter&
    kv(std::string_view name, T&& v)
    {
        key(name);
        return value(std::forward<T>(v));
    }

  private:
    void before_value();
    void newline_indent();

    std::ostream& os_;
    bool pretty_;
    /** One entry per open container: true = object, false = array. */
    std::vector<bool> stack_;
    bool first_in_container_ = true;
    bool key_pending_ = false;
};

/**
 * Parsed JSON value. Numbers are kept as doubles (adequate for report
 * validation; the reports themselves never exceed 2^53 meaningfully).
 */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool is_object() const { return type == Type::Object; }
    bool is_array() const { return type == Type::Array; }
    bool is_string() const { return type == Type::String; }
    bool is_number() const { return type == Type::Number; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue* find(std::string_view name) const;

    bool operator==(const JsonValue&) const = default;
};

/** Parse @p text; nullopt (with *error set when given) on malformed input. */
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

} // namespace nucalock::obs

#endif // NUCALOCK_OBS_JSON_HPP
