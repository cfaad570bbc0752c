/**
 * @file
 * The one JSON string escaper, shared by the JSON writer (obs/json.hpp)
 * and the JSON-lines logger (common/log.hpp). It lives in common/
 * because the logger sits below obs/ in the layering.
 *
 * Escaping is byte-exact and part of every output contract: '"', '\\',
 * '\n', '\r' and '\t' get their short escapes, every other byte below
 * 0x20 becomes `\u00xx` (lowercase hex), and all other bytes (0x7f and
 * UTF-8 sequences included) are copied verbatim.
 */

#ifndef STACKSCOPE_COMMON_JSON_ESCAPE_HPP
#define STACKSCOPE_COMMON_JSON_ESCAPE_HPP

#include <string>
#include <string_view>

namespace stackscope {

/**
 * Append @p text to @p out escaped for use inside a JSON string literal
 * (the surrounding quotes are the caller's). Each run of bytes that
 * needs no escape is appended in one call.
 */
void appendJsonEscaped(std::string &out, std::string_view text);

}  // namespace stackscope

#endif  // STACKSCOPE_COMMON_JSON_ESCAPE_HPP
