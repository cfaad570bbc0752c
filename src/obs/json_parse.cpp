#include "obs/json_parse.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace stackscope::obs {

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw StackscopeError(ErrorCategory::kUsage,
                              "JSON parse error: " + what)
            .withContext("offset", std::to_string(pos_));
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWhitespace();
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::kString;
            v.string = parseString();
            return v;
          }
          case 't': {
            if (!consumeLiteral("true"))
                fail("invalid literal");
            JsonValue v;
            v.kind = JsonValue::Kind::kBool;
            v.boolean = true;
            return v;
          }
          case 'f': {
            if (!consumeLiteral("false"))
                fail("invalid literal");
            JsonValue v;
            v.kind = JsonValue::Kind::kBool;
            return v;
          }
          case 'n': {
            if (!consumeLiteral("null"))
                fail("invalid literal");
            return {};
          }
          default: return parseNumber();
        }
    }

    /** Guards the recursion depth; fail() before the stack can overflow. */
    void
    enterNested()
    {
        if (++depth_ > kMaxJsonDepth) {
            fail("nesting depth exceeds the limit of " +
                 std::to_string(kMaxJsonDepth) + " levels");
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        enterNested();
        JsonValue v;
        v.kind = JsonValue::Kind::kObject;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return v;
        }
        for (;;) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        enterNested();
        JsonValue v;
        v.kind = JsonValue::Kind::kArray;
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': out += parseUnicodeEscape(); break;
              default: fail("invalid escape");
            }
        }
    }

    /** \uXXXX, decoded to UTF-8 (surrogate pairs supported). */
    std::string
    parseUnicodeEscape()
    {
        std::uint32_t cp = parseHex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!consumeLiteral("\\u"))
                fail("unpaired surrogate");
            const std::uint32_t low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return out;
    }

    std::uint32_t
    parseHex4()
    {
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                fail("truncated \\u escape");
            const char c = text_[pos_++];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                fail("invalid hex digit in \\u escape");
        }
        return value;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("invalid value");
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double number = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail("invalid number");
        JsonValue v;
        v.kind = JsonValue::Kind::kNumber;
        v.number = number;
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

}  // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

JsonValue *
JsonValue::find(std::string_view key)
{
    return const_cast<JsonValue *>(std::as_const(*this).find(key));
}

const JsonValue &
JsonValue::at(std::string_view key) const
{
    const JsonValue *v = find(key);
    if (v == nullptr) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "JSON document is missing a required member")
            .withContext("member", std::string(key));
    }
    return *v;
}

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).parseDocument();
}

}  // namespace stackscope::obs
