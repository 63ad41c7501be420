/**
 * @file
 * The one checked parser for numbers written as text: protocol
 * fields, config overrides, `gen:` names, endpoints, corpus lines and
 * command-line flags.
 */
#ifndef RFV_COMMON_DECIMAL_H
#define RFV_COMMON_DECIMAL_H

#include <charconv>
#include <string_view>
#include <system_error>

namespace rfv {

/**
 * Parse all of @p text as a number of type T.  Returns false, leaving
 * @p out untouched, on an empty string, on any character that is not
 * part of the number (whitespace, a '+', a '-' for unsigned T), and on
 * a value outside T's range: never a wrapped or truncated result.
 */
template <typename T>
bool
parseDecimal(std::string_view text, T &out)
{
    const char *first = text.data();
    const char *last = first + text.size();
    T value{};
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last)
        return false;
    out = value;
    return true;
}

} // namespace rfv

#endif // RFV_COMMON_DECIMAL_H
