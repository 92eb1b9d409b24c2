#include "support/str.hh"

#include <cctype>
#include <cstdio>

namespace ximd {

std::vector<std::string_view>
split(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string
hex2(unsigned v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%02x", v);
    return buf;
}

std::string
padLeft(std::string_view s, std::size_t width)
{
    std::string out(s);
    if (out.size() < width)
        out.insert(0, width - out.size(), ' ');
    return out;
}

std::string
padRight(std::string_view s, std::size_t width)
{
    std::string out(s);
    if (out.size() < width)
        out.append(width - out.size(), ' ');
    return out;
}

std::string
fixed(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

} // namespace ximd
