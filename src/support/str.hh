/**
 * @file
 * Small string utilities used by the assembler, disassembler and
 * benchmark table printers. No locale dependence, ASCII only.
 */

#ifndef XIMD_SUPPORT_STR_HH
#define XIMD_SUPPORT_STR_HH

#include <string>
#include <string_view>
#include <vector>

namespace ximd {

/** ASCII whitespace, as isspace() in the C locale: " \t\n\v\f\r". */
inline bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Strip leading and trailing whitespace. */
inline std::string_view
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && isSpace(s[b]))
        ++b;
    while (e > b && isSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

/** Split @p s on @p sep (single char); keeps empty fields. */
std::vector<std::string_view> split(std::string_view s, char sep);

/** ASCII lower-case copy. */
std::string toLower(std::string_view s);

/** Render @p v as a two-digit-minimum lowercase hex string ("0a"). */
std::string hex2(unsigned v);

/** Left-pad @p s with spaces to @p width (no-op when already wider). */
std::string padLeft(std::string_view s, std::size_t width);

/** Right-pad @p s with spaces to @p width (no-op when already wider). */
std::string padRight(std::string_view s, std::size_t width);

/** Render a double with @p digits fractional digits ("3.14"). */
std::string fixed(double v, int digits);

} // namespace ximd

#endif // XIMD_SUPPORT_STR_HH
