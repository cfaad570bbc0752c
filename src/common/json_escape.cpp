#include "common/json_escape.hpp"

namespace stackscope {

namespace {

bool
needsEscape(char ch)
{
    return static_cast<unsigned char>(ch) < 0x20 || ch == '"' || ch == '\\';
}

}  // namespace

void
appendJsonEscaped(std::string &out, std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    const char *run = text.data();
    const char *const end = run + text.size();
    for (const char *p = run; p != end; ++p) {
        if (!needsEscape(*p))
            continue;
        out.append(run, p);
        run = p + 1;
        switch (*p) {
          case '"': out.append("\\\"", 2); break;
          case '\\': out.append("\\\\", 2); break;
          case '\n': out.append("\\n", 2); break;
          case '\r': out.append("\\r", 2); break;
          case '\t': out.append("\\t", 2); break;
          default: {
            const auto c = static_cast<unsigned char>(*p);
            const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
            out.append(u, sizeof(u));
          }
        }
    }
    out.append(run, end);
}

}  // namespace stackscope
