#include "support/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <system_error>

#include "support/logging.hh"

namespace ximd::json {

std::string
ParseError::formatted() const
{
    return cat("byte ", offset, ": ", message);
}

bool
Value::asBool() const
{
    XIMD_ASSERT(isBool(), "JSON value is not a bool");
    return bool_;
}

double
Value::asNumber() const
{
    XIMD_ASSERT(isNumber(), "JSON value is not a number");
    return num_;
}

std::int64_t
Value::asInt() const
{
    XIMD_ASSERT(isNumber(), "JSON value is not a number");
    return static_cast<std::int64_t>(num_);
}

const std::string &
Value::asString() const
{
    XIMD_ASSERT(isString(), "JSON value is not a string");
    return str_;
}

const std::vector<Value> &
Value::items() const
{
    XIMD_ASSERT(isArray(), "JSON value is not an array");
    return arr_;
}

void
Value::push(Value v)
{
    XIMD_ASSERT(isArray(), "JSON value is not an array");
    arr_.push_back(std::move(v));
}

const std::vector<Value::Member> &
Value::members() const
{
    XIMD_ASSERT(isObject(), "JSON value is not an object");
    return obj_;
}

const Value *
Value::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const Member &m : obj_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

void
Value::set(std::string_view key, Value v)
{
    XIMD_ASSERT(isObject(), "JSON value is not an object");
    for (Member &m : obj_) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(std::string(key), std::move(v));
}

std::string
Value::dump(int indent) const
{
    return Writer(indent).value(*this).take();
}

bool
FieldReader::fail(std::string_view key, const std::string &rule)
{
    error_ = cat("'", key, "' must be ", rule);
    return false;
}

bool
FieldReader::get(std::string_view key, const Value *v, std::string &dst)
{
    if (!shouldRead(v))
        return ok();
    if (!v->isString())
        return fail(key, "a string");
    dst = v->asString();
    return true;
}

bool
FieldReader::get(std::string_view key, const Value *v, bool &dst)
{
    if (!shouldRead(v))
        return ok();
    if (!v->isBool())
        return fail(key, "a boolean");
    dst = v->asBool();
    return true;
}

bool
FieldReader::get(std::string_view key, const Value *v,
                 std::vector<std::string> &dst)
{
    if (!shouldRead(v))
        return ok();
    const auto isString = [](const Value &item) {
        return item.isString();
    };
    if (!v->isArray() ||
        !std::all_of(v->items().begin(), v->items().end(), isString))
        return fail(key, "an array of strings");
    dst.clear();
    for (const Value &item : v->items())
        dst.push_back(item.asString());
    return true;
}

bool
FieldReader::getUint(std::string_view key, const Value *v,
                     std::uint64_t max, std::uint64_t &dst)
{
    if (!shouldRead(v))
        return ok();
    const double d = v->isNumber() ? v->asNumber() : -1.0;
    if (d < 0.0 || d != std::floor(d))
        return fail(key, "a non-negative integer");
    // 0x1p64 is the smallest double no std::uint64_t can hold.
    if (d >= 0x1p64 || static_cast<std::uint64_t>(d) > max)
        return fail(key, cat("at most ", max));
    dst = static_cast<std::uint64_t>(d);
    return true;
}

namespace {

/**
 * The one JSON reader: recursive descent over a string_view that
 * reports what it reads to @p Handler as events — null(), boolean(b),
 * number(d), string(s), beginArray(), endArray(), beginObject(),
 * key(s), endObject(). A string handed to string() or key() is valid
 * only during that call. Recursion is bounded by kMaxDepth.
 */
template <class Handler>
class Tokenizer
{
  public:
    Tokenizer(std::string_view text, Handler &handler)
        : text_(text), handler_(handler)
    {
    }

    /** Read one document; on false, error() says why. */
    bool
    document()
    {
        if (!parseValue(0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON document");
        return true;
    }

    const ParseError &error() const { return error_; }

  private:
    bool
    fail(std::string msg)
    {
        error_ = ParseError{pos_, std::move(msg)};
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    /** One value inside @p depth open arrays and objects. */
    bool
    parseValue(std::size_t depth)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
          case 'n':
            if (!literal("null"))
                return false;
            handler_.null();
            return true;
          case 't':
            if (!literal("true"))
                return false;
            handler_.boolean(true);
            return true;
          case 'f':
            if (!literal("false"))
                return false;
            handler_.boolean(false);
            return true;
          case '"': {
            std::string_view s;
            if (!parseString(s))
                return false;
            handler_.string(s);
            return true;
          }
          case '[':
            return parseArray(depth + 1);
          case '{':
            return parseObject(depth + 1);
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            return fail(cat("unexpected character '", c, "'"));
        }
    }

    bool
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const std::string_view tok = text_.substr(start, pos_ - start);
        double d = 0.0;
        const auto [end, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (end != tok.data() + tok.size() || tok.empty()) {
            pos_ = start;
            return fail(cat("bad number '", tok, "'"));
        }
        // Out of range leaves d unset; take the C library's rounding
        // to +/-inf or +/-0, as strtod gives it.
        if (ec == std::errc::result_out_of_range)
            d = std::strtod(std::string(tok).c_str(), nullptr);
        handler_.number(d);
        return true;
    }

    /**
     * The string at pos_, unescaped into @p out: a view of the source
     * when it holds no escapes, else of scratch_.
     */
    bool
    parseString(std::string_view &out)
    {
        ++pos_; // opening quote
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\\')
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '"') {
            out = text_.substr(start, pos_ - start);
            ++pos_;
            return true;
        }
        scratch_.assign(text_.substr(start, pos_ - start));
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                out = scratch_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    break;
                const char esc = text_[pos_ + 1];
                pos_ += 2;
                switch (esc) {
                  case '"': scratch_ += '"'; break;
                  case '\\': scratch_ += '\\'; break;
                  case '/': scratch_ += '/'; break;
                  case 'b': scratch_ += '\b'; break;
                  case 'f': scratch_ += '\f'; break;
                  case 'n': scratch_ += '\n'; break;
                  case 'r': scratch_ += '\r'; break;
                  case 't': scratch_ += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    const std::string hex(text_.substr(pos_, 4));
                    char *end = nullptr;
                    const long code =
                        std::strtol(hex.c_str(), &end, 16);
                    if (end != hex.c_str() + 4 || code > 0x7F)
                        return fail(
                            "unsupported \\u escape (ASCII only)");
                    pos_ += 4;
                    scratch_ += static_cast<char>(code);
                    break;
                  }
                  default:
                    pos_ -= 1;
                    return fail(cat("bad escape '\\", esc, "'"));
                }
                continue;
            }
            scratch_ += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    /**
     * Step past the opening bracket of a container at @p depth, or
     * fail at it when that nests deeper than kMaxDepth.
     */
    bool
    enter(std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail(cat("nesting deeper than ", kMaxDepth,
                            " levels"));
        ++pos_; // the bracket
        return true;
    }

    bool
    parseArray(std::size_t depth)
    {
        if (!enter(depth))
            return false;
        handler_.beginArray();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            handler_.endArray();
            return true;
        }
        while (true) {
            if (!parseValue(depth))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                handler_.endArray();
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(std::size_t depth)
    {
        if (!enter(depth))
            return false;
        handler_.beginObject();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            handler_.endObject();
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key string");
            std::string_view key;
            if (!parseString(key))
                return false;
            handler_.key(key);
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            if (!parseValue(depth))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                handler_.endObject();
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    Handler &handler_;
    std::size_t pos_ = 0;
    std::string scratch_; ///< Unescaped text of the last string.
    ParseError error_;
};

/** The one escaping routine: @p s as a quoted JSON string literal. */
void
appendQuoted(std::string &out, std::string_view s)
{
    out += '"';
    std::size_t plain = 0; // start of the run not yet copied
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + plain, i - plain);
        plain = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xF]};
            out.append(code, sizeof(code));
          }
        }
    }
    out.append(s.data() + plain, s.size() - plain);
    out += '"';
}

/** The one number formatter. */
void
appendNumber(std::string &out, double d)
{
    // Integral values in the exactly-representable range print as
    // integers, so counters round-trip byte-identically; anything
    // else takes the shortest round-trip form ("0.421001" stays
    // "0.421001" instead of ballooning to 17 significant digits).
    char buf[32];
    const auto res =
        std::nearbyint(d) == d && std::fabs(d) <= 9007199254740992.0
            ? std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(d))
            : std::to_chars(buf, buf + sizeof(buf), d);
    out.append(buf, res.ptr);
}

} // namespace

/** parse()'s handler: assembles the Value tree the events describe. */
class TreeSink
{
  public:
    void null() { add(Value()); }
    void boolean(bool b) { add(Value(b)); }
    void number(double d) { add(Value(d)); }
    void string(std::string_view s) { add(Value(std::string(s))); }
    void beginArray() { open_.push_back(&add(Value::array())); }
    void beginObject() { open_.push_back(&add(Value::object())); }
    void endArray() { open_.pop_back(); }
    void key(std::string_view name) { key_.assign(name); }

    void
    endObject()
    {
        mergeRepeatedKeys(open_.back()->obj_);
        open_.pop_back();
    }

    Value &root() { return root_; }

  private:
    /** Append @p v to the innermost open container, or make it root. */
    Value &
    add(Value v)
    {
        if (open_.empty())
            return root_ = std::move(v);
        Value &parent = *open_.back();
        if (parent.kind_ == Value::Kind::Array)
            return parent.arr_.emplace_back(std::move(v));
        return parent.obj_.emplace_back(std::move(key_), std::move(v))
            .second;
    }

    /**
     * Resolve repeated keys as Value::set would — the first position
     * takes the last value — in O(n log n): member indices sorted by
     * (key, position) put each key's occurrences side by side, in
     * document order.
     */
    void
    mergeRepeatedKeys(std::vector<Value::Member> &members)
    {
        if (members.size() < 2)
            return;
        order_.resize(members.size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        std::sort(order_.begin(), order_.end(),
                  [&members](std::size_t a, std::size_t b) {
                      const int c =
                          members[a].first.compare(members[b].first);
                      return c != 0 ? c < 0 : a < b;
                  });
        std::vector<bool> dropped; // sized on the first repeat
        std::size_t first = order_[0];
        for (std::size_t i = 1; i < order_.size(); ++i) {
            const std::size_t at = order_[i];
            if (members[at].first != members[first].first) {
                first = at;
                continue;
            }
            members[first].second = std::move(members[at].second);
            dropped.resize(members.size());
            dropped[at] = true;
        }
        if (dropped.empty())
            return;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (dropped[i])
                continue;
            if (kept != i)
                members[kept] = std::move(members[i]);
            ++kept;
        }
        members.erase(members.begin() +
                          static_cast<std::ptrdiff_t>(kept),
                      members.end());
    }

    Value root_;
    /**
     * Containers being filled, innermost last. The pointers stay
     * valid: a container's parent grows only after it closes.
     */
    std::vector<Value *> open_;
    std::string key_; ///< Key of the next object member.
    std::vector<std::size_t> order_;
};

Result<Value, ParseError>
parse(std::string_view text)
{
    TreeSink tree;
    Tokenizer<TreeSink> reader(text, tree);
    if (!reader.document())
        return reader.error();
    return std::move(tree.root());
}

void
Writer::newline()
{
    if (indent_ > 0) {
        out_ += '\n';
        out_.append(static_cast<std::size_t>(indent_) * at_.depth, ' ');
    }
}

void
Writer::separate()
{
    if (at_.keyed) {
        at_.keyed = false;
        return;
    }
    if (at_.depth == 0)
        return;
    if (!at_.empty)
        out_ += ',';
    at_.empty = false;
    newline();
}

void
Writer::dropUnusedKey()
{
    if (!at_.keyed)
        return;
    out_.resize(at_.keyMark);
    at_.empty = at_.keyEmpty;
    at_.keyed = false;
}

Writer &
Writer::open(char bracket)
{
    separate();
    out_ += bracket;
    ++at_.depth;
    at_.empty = true;
    return *this;
}

Writer &
Writer::close(char bracket)
{
    XIMD_ASSERT(at_.depth > 0, "JSON writer: close without open");
    dropUnusedKey();
    --at_.depth;
    if (!at_.empty)
        newline();
    at_.empty = false;
    out_ += bracket;
    return *this;
}

Writer &Writer::beginObject() { return open('{'); }
Writer &Writer::endObject() { return close('}'); }
Writer &Writer::beginArray() { return open('['); }
Writer &Writer::endArray() { return close(']'); }

Writer &
Writer::key(std::string_view name)
{
    dropUnusedKey();
    at_.keyMark = out_.size();
    at_.keyEmpty = at_.empty;
    separate();
    appendQuoted(out_, name);
    out_ += indent_ > 0 ? ": " : ":";
    at_.keyed = true;
    return *this;
}

Writer &
Writer::null()
{
    separate();
    out_ += "null";
    return *this;
}

Writer &
Writer::boolean(bool b)
{
    separate();
    out_ += b ? "true" : "false";
    return *this;
}

Writer &
Writer::number(double d)
{
    separate();
    appendNumber(out_, d);
    return *this;
}

Writer &
Writer::string(std::string_view s)
{
    separate();
    appendQuoted(out_, s);
    return *this;
}

Writer &
Writer::value(const Value &v)
{
    switch (v.kind()) {
      case Value::Kind::Null:
        return null();
      case Value::Kind::Bool:
        return boolean(v.asBool());
      case Value::Kind::Number:
        return number(v.asNumber());
      case Value::Kind::String:
        return string(v.asString());
      case Value::Kind::Array:
        beginArray();
        for (const Value &item : v.items())
            value(item);
        return endArray();
      case Value::Kind::Object:
        beginObject();
        for (const auto &[name, member] : v.members()) {
            key(name);
            value(member);
        }
        return endObject();
    }
    return *this;
}

bool
Writer::embed(std::string_view doc)
{
    const std::size_t mark = out_.size();
    const Cursor saved = at_;
    if (Tokenizer<Writer>(doc, *this).document())
        return true;
    out_.resize(mark);
    at_ = saved;
    return false;
}

} // namespace ximd::json
