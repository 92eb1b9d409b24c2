/**
 * @file
 * Minimal JSON value model, reader, and streaming writer.
 *
 * The batch-run engine (src/farm/) consumes sweep specifications and
 * emits aggregate reports as JSON; the repository deliberately carries
 * no third-party JSON dependency, so this is a small, strict subset
 * implementation sufficient for those uses:
 *
 *  - values: null, bool, number (stored as double; integers up to
 *    2^53 round-trip exactly), string, array, object;
 *  - a repeated object key keeps its first position and takes its
 *    last value, and objects serialize in insertion order, so emitted
 *    reports are deterministic;
 *  - parse errors are reported structurally (Result) with a byte
 *    offset and message, never by exception;
 *  - strings support the standard escapes; \uXXXX is accepted for
 *    ASCII code points (sufficient for machine-generated specs).
 *
 * Not supported (rejected at parse time): comments, trailing commas,
 * NaN/Infinity literals, and nesting deeper than kMaxDepth arrays and
 * objects (the reader recurses once per level, so the cap bounds its
 * stack on hostile input).
 *
 * One reader and one writer serve every use. The reader is a
 * tokenizer that reports values as events: parse() builds a Value
 * tree from them, and Writer::embed() sends them straight into a
 * Writer. Parsing costs O(n log n) in the document size: repeated
 * keys are resolved by sorting each object's keys once it closes.
 * Writer produces exactly the bytes Value::dump() does — dump() is a
 * walk over one — so escaping, number text and indentation exist
 * once, and a report can embed an already-serialized document (a
 * job's statsJson) without building or re-parsing a tree.
 */

#ifndef XIMD_SUPPORT_JSON_HH
#define XIMD_SUPPORT_JSON_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/result.hh"

namespace ximd::json {

/** Deepest nesting of arrays and objects the reader accepts. */
inline constexpr std::size_t kMaxDepth = 256;

/** A parse failure: byte offset into the source plus a message. */
struct ParseError
{
    std::size_t offset = 0;
    std::string message;

    /** "byte 17: expected ':' after object key". */
    std::string formatted() const;
};

/** One JSON value (tree-owning). */
class Value
{
  public:
    enum class Kind : std::uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    /** Object entries keep insertion order for deterministic output. */
    using Member = std::pair<std::string, Value>;

    Value() : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double n) : kind_(Kind::Number), num_(n) {}
    Value(std::int64_t n)
        : kind_(Kind::Number), num_(static_cast<double>(n))
    {
    }
    Value(std::uint64_t n)
        : kind_(Kind::Number), num_(static_cast<double>(n))
    {
    }
    Value(int n) : kind_(Kind::Number), num_(n) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /// @name Scalar access (asserts on kind mismatch).
    /// @{
    bool asBool() const;
    double asNumber() const;
    std::int64_t asInt() const;
    const std::string &asString() const;
    /// @}

    /// @name Array access / construction.
    /// @{
    const std::vector<Value> &items() const;
    void push(Value v);
    /// @}

    /// @name Object access / construction.
    /// @{
    const std::vector<Member> &members() const;

    /** Member @p key, or null when absent (or not an object). */
    const Value *find(std::string_view key) const;

    /** Set member @p key (replaces an existing entry in place). */
    void set(std::string_view key, Value v);
    /// @}

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits the compact single-line form. Key order is
     * insertion order; doubles that hold integral values in the
     * +/-2^53 range print without a fraction.
     */
    std::string dump(int indent = 0) const;

  private:
    friend class TreeSink; ///< parse()'s event handler (json.cc).

    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<Member> obj_;
};

/**
 * Typed reads of the fields of an input document: a sweep entry, a
 * fault plan, a service request. Each get() stores the field's value
 * @p v in @p dst; an absent field (null @p v) leaves @p dst as it is.
 * A value of the wrong JSON type is rejected, and so is, for an
 * unsigned integer @p dst, a negative number, a fraction, or a number
 * @p dst cannot hold. The first rejection is kept as error(), a
 * message naming @p key, and every get() after it fails at once, so a
 * run of reads needs one check at the end.
 */
class FieldReader
{
  public:
    bool get(std::string_view key, const Value *v, std::string &dst);
    bool get(std::string_view key, const Value *v, bool &dst);

    /** An array of strings. */
    bool get(std::string_view key, const Value *v,
             std::vector<std::string> &dst);

    template <std::unsigned_integral T>
    bool get(std::string_view key, const Value *v, T &dst)
    {
        std::uint64_t wide = dst;
        if (!getUint(key, v, std::numeric_limits<T>::max(), wide))
            return false;
        dst = static_cast<T>(wide);
        return true;
    }

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

  private:
    /** True when @p v is present and no earlier get() failed. */
    bool shouldRead(const Value *v) const { return ok() && v != nullptr; }

    bool getUint(std::string_view key, const Value *v,
                 std::uint64_t max, std::uint64_t &dst);
    bool fail(std::string_view key, const std::string &rule);

    std::string error_;
};

/**
 * Parse @p text as one JSON document (trailing junk is an error).
 * O(n log n) in the size of @p text; nesting past kMaxDepth is an
 * error at the offending bracket.
 */
Result<Value, ParseError> parse(std::string_view text);

/**
 * Streaming serializer. Appends to its buffer exactly the bytes
 * Value::dump(indent) writes for the same values, without building a
 * tree:
 *
 *     Writer w(2);
 *     w.beginObject();
 *     w.key("jobs").beginArray().number(1).endArray();
 *     w.endObject();          // w.str() == the dump of {"jobs": [1]}
 *
 * Inside an object, key() names the member the next value call (or
 * embed) writes. A key whose value never comes — the next key() or
 * endObject() follows it directly, as after a failed embed() — is
 * taken back, so the member is omitted.
 */
class Writer
{
  public:
    /** @p indent as for Value::dump(). */
    explicit Writer(int indent = 0) : indent_(indent) {}

    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();
    Writer &key(std::string_view name);

    Writer &null();
    Writer &boolean(bool b);
    Writer &number(double d);
    Writer &string(std::string_view s);

    /** Write the tree @p v (what Value::dump() is made of). */
    Writer &value(const Value &v);

    /**
     * Write the JSON document @p doc as one value, re-indented to this
     * writer's layout, with strings and numbers written as
     * value(parse(doc)) would write them ("0.500000" becomes "0.5",
     * "\u0041" becomes "A"). Members are copied in document order, so
     * a repeated key stays repeated where parse() would merge it.
     * Returns false and leaves the buffer byte-identical when @p doc
     * is malformed (as parse() defines it).
     */
    bool embed(std::string_view doc);

    /** The bytes written so far. */
    const std::string &str() const { return out_; }

    /** Move the buffer out; the writer is spent afterwards. */
    std::string take() { return std::move(out_); }

  private:
    /** Everything but the buffer: what embed() restores on failure. */
    struct Cursor
    {
        std::size_t depth = 0;   ///< Open arrays and objects.
        bool empty = false;      ///< Innermost one has no element yet.
        bool keyed = false;      ///< A key awaits its value.
        std::size_t keyMark = 0; ///< Buffer size before that key.
        bool keyEmpty = false;   ///< `empty` before that key.
    };

    void separate();
    void newline();
    void dropUnusedKey();
    Writer &open(char bracket);
    Writer &close(char bracket);

    std::string out_;
    int indent_;
    Cursor at_;
};

} // namespace ximd::json

#endif // XIMD_SUPPORT_JSON_HH
