/**
 * @file
 * Minimal recursive-descent JSON parser — the read side of the report
 * contract, built for `diff-report`.
 *
 * The writer (obs/json.hpp) only ever produces standard JSON, so the
 * parser accepts exactly RFC 8259: objects, arrays, strings with the
 * usual escapes, numbers, true/false/null. Errors throw
 * StackscopeError(kUsage) with byte-offset context, because the only
 * malformed documents this will ever see are user-supplied files.
 *
 * Object member order is preserved (vector of pairs, not a map): the
 * report schema is ordered, and a diff that reports components in stack
 * order is far easier to read than one sorted alphabetically.
 */

#ifndef STACKSCOPE_OBS_JSON_PARSE_HPP
#define STACKSCOPE_OBS_JSON_PARSE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stackscope::obs {

/**
 * Maximum container nesting depth parseJson() accepts. The parser is
 * recursive-descent, so without a bound an adversarial input of a few
 * hundred kilobytes of '[' would exhaust the call stack and crash the
 * process; past this depth it throws StackscopeError(kUsage) instead.
 * Real reports nest ~8 levels, so the bound is two orders of magnitude
 * of headroom.
 */
inline constexpr std::size_t kMaxJsonDepth = 192;

/** One parsed JSON value. */
class JsonValue
{
  public:
    enum class Kind
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Members in document order. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::kNull; }
    bool isBool() const { return kind == Kind::kBool; }
    bool isNumber() const { return kind == Kind::kNumber; }
    bool isString() const { return kind == Kind::kString; }
    bool isArray() const { return kind == Kind::kArray; }
    bool isObject() const { return kind == Kind::kObject; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;
    /** Mutable lookup, e.g. to move a subtree out of a parsed document. */
    JsonValue *find(std::string_view key);

    /** Member lookup that throws StackscopeError(kUsage) when missing. */
    const JsonValue &at(std::string_view key) const;

    /** Number value, or @p fallback when this is not a number. */
    double numberOr(double fallback) const
    {
        return isNumber() ? number : fallback;
    }
};

/**
 * Parse @p text as one JSON document (trailing garbage is an error).
 * Throws StackscopeError(kUsage) on any syntax error.
 */
JsonValue parseJson(std::string_view text);

}  // namespace stackscope::obs

#endif  // STACKSCOPE_OBS_JSON_PARSE_HPP
