#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <utility>

#include "common/json_escape.hpp"

namespace stackscope::obs {

namespace {

template <typename Int>
void
appendInteger(std::string &out, Int number)
{
    char buf[24];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), number);
    out.append(buf, r.ptr);
}

}  // namespace

void
JsonWriter::separate()
{
    if (need_comma_)
        out_ += ',';
    need_comma_ = true;
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separate();
    out_ += '"';
    appendJsonEscaped(out_, name);
    out_.append("\":", 2);
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    separate();
    out_ += '"';
    appendJsonEscaped(out_, text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string_view(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    if (!std::isfinite(number))
        return null();
    separate();
    // "%.17g" is at most 24 bytes: sign, 17 digits, point, "e-308".
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), number, std::chars_format::general, 17);
    out_.append(buf, r.ptr);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    separate();
    appendInteger(out_, number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t number)
{
    separate();
    appendInteger(out_, number);
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned number)
{
    return value(static_cast<std::uint64_t>(number));
}

JsonWriter &
JsonWriter::value(int number)
{
    return value(static_cast<std::int64_t>(number));
}

JsonWriter &
JsonWriter::value(bool flag)
{
    separate();
    if (flag)
        out_.append("true", 4);
    else
        out_.append("false", 5);
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_.append("null", 4);
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view fragment)
{
    separate();
    out_ += fragment;
    return *this;
}

std::string
JsonWriter::take()
{
    need_comma_ = false;
    return std::exchange(out_, std::string());
}

}  // namespace stackscope::obs
