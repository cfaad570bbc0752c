/**
 * @file
 * Minimal streaming JSON writer for the observability exporters.
 *
 * The run-report and trace-event formats are versioned, machine-readable
 * contracts (docs/formats.md), so the writer is deliberately strict and
 * deterministic: keys are emitted in call order, doubles use a fixed
 * round-trippable format, and non-finite values become null (JSON has no
 * NaN/Infinity). No external JSON dependency is required.
 *
 * Every token is written straight into one output buffer: strings are
 * escaped in place (common/json_escape.hpp) and numbers are formatted
 * with std::to_chars, so building a document allocates nothing beyond
 * the buffer itself.
 */

#ifndef STACKSCOPE_OBS_JSON_HPP
#define STACKSCOPE_OBS_JSON_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace stackscope::obs {

/**
 * Append-only JSON document builder. Call sequence mirrors document
 * structure: beginObject()/endObject(), beginArray()/endArray(), key()
 * before every object member, value() for scalars. Commas are inserted
 * automatically. Misuse (e.g. two keys in a row) produces malformed
 * output rather than throwing; the tests round-trip every produced
 * document through a real parser.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member key inside an object; the next begin/value call is its value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    JsonWriter &value(const char *text);
    /**
     * Doubles are written as printf's "%.17g" would write them
     * (lossless), via std::to_chars; NaN/Inf are emitted as null.
     */
    JsonWriter &value(double number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(unsigned number);
    JsonWriter &value(int number);
    JsonWriter &value(bool flag);
    JsonWriter &null();

    /**
     * Splice a pre-serialized JSON fragment verbatim as the next value.
     * The caller vouches that @p fragment is well-formed JSON; the sweep
     * journal uses this to replay stored report fragments byte-for-byte.
     */
    JsonWriter &raw(std::string_view fragment);

    /** Grow the buffer once when the document size is known up front. */
    void reserve(std::size_t bytes) { out_.reserve(bytes); }

    const std::string &str() const { return out_; }

    /** Move the document out; the writer starts a new, empty one. */
    std::string take();

  private:
    void separate();

    std::string out_;
    /** A value or container ended last, so the next token needs a ','. */
    bool need_comma_ = false;
};

}  // namespace stackscope::obs

#endif  // STACKSCOPE_OBS_JSON_HPP
