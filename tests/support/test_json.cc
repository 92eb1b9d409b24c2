#include "support/json.hh"

#include <chrono>
#include <string>

#include <gtest/gtest.h>

namespace ximd::json {
namespace {

Value
parseOk(std::string_view text)
{
    auto r = parse(text);
    EXPECT_TRUE(r.hasValue()) << (r.hasValue()
                                      ? ""
                                      : r.error().formatted());
    return r.hasValue() ? std::move(r.value()) : Value();
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_EQ(parseOk("true").asBool(), true);
    EXPECT_EQ(parseOk("false").asBool(), false);
    EXPECT_EQ(parseOk("42").asInt(), 42);
    EXPECT_EQ(parseOk("-7").asInt(), -7);
    EXPECT_DOUBLE_EQ(parseOk("2.5e1").asNumber(), 25.0);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesStringEscapes)
{
    EXPECT_EQ(parseOk(R"("a\"b\\c\nd")").asString(), "a\"b\\c\nd");
    EXPECT_EQ(parseOk(R"("A")").asString(), "A");
}

TEST(Json, ParsesNestedStructure)
{
    const Value v = parseOk(
        R"({"runs": [{"n": [1, 2]}, {"mode": "vliw"}], "x": {}})");
    ASSERT_TRUE(v.isObject());
    const Value *runs = v.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_TRUE(runs->isArray());
    ASSERT_EQ(runs->items().size(), 2u);
    const Value *n = runs->items()[0].find("n");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->items().size(), 2u);
    EXPECT_EQ(runs->items()[1].find("mode")->asString(), "vliw");
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(parse("").hasValue());
    EXPECT_FALSE(parse("{").hasValue());
    EXPECT_FALSE(parse("[1,]").hasValue());
    EXPECT_FALSE(parse("{\"a\" 1}").hasValue());
    EXPECT_FALSE(parse("nul").hasValue());
    EXPECT_FALSE(parse("1 2").hasValue()); // trailing junk
    EXPECT_FALSE(parse("'single'").hasValue());
    // 100,000 levels once overflowed the reader's stack.
    EXPECT_FALSE(parse(std::string(100000, '[')).hasValue());
}

TEST(Json, ParseErrorCarriesOffset)
{
    auto r = parse("[1, !]");
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().offset, 4u);
    EXPECT_NE(r.error().formatted().find("byte 4"),
              std::string::npos);

    // Nesting past kMaxDepth fails at the bracket that goes too deep.
    const std::string open(kMaxDepth, '[');
    const std::string close(kMaxDepth, ']');
    EXPECT_TRUE(parse(open + close).hasValue());
    r = parse(open + "{}" + close);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().offset, kMaxDepth);
    EXPECT_NE(r.error().message.find("nesting"), std::string::npos)
        << r.error().message;
}

TEST(Json, DumpIsInsertionOrdered)
{
    Value o = Value::object();
    o.set("zeta", 1);
    o.set("alpha", 2);
    o.set("zeta", 3); // replaces in place, keeps position
    EXPECT_EQ(o.dump(), "{\"zeta\":3,\"alpha\":2}");
    // The reader resolves a repeated key by the same rule.
    EXPECT_EQ(parseOk(R"({"zeta":1,"alpha":2,"zeta":3})").dump(),
              o.dump());
}

TEST(Json, ManyKeysParseInBetterThanQuadraticTime)
{
    // 100,000 keys, every 10th one repeated later with a new value:
    // a per-key scan for duplicates would take tens of seconds.
    const int n = 100000;
    std::string text = "{";
    for (int i = 0; i < n; ++i)
        text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    for (int i = 0; i < n; i += 10)
        text += "\"k" + std::to_string(i) + "\":-" + std::to_string(i) + ",";
    text.back() = '}';

    const auto start = std::chrono::steady_clock::now();
    const Value v = parseOk(text);
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    EXPECT_LT(sec, 2.0);

    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members().size(), static_cast<std::size_t>(n));
    for (int i : {0, 1, 9, 10, 12345, 99990, 99999}) {
        const Value::Member &m = v.members()[static_cast<std::size_t>(i)];
        EXPECT_EQ(m.first, "k" + std::to_string(i));
        EXPECT_EQ(m.second.asInt(), i % 10 == 0 ? -i : i) << m.first;
    }
}

TEST(Json, IntegersRoundTripExactly)
{
    const std::string text = "[0,1,-1,9007199254740992,123456789]";
    EXPECT_EQ(parseOk(text).dump(), text);
}

TEST(Json, DoublesUseShortestForm)
{
    Value v(0.421001);
    EXPECT_EQ(v.dump(), "0.421001");
}

TEST(Json, RoundTripStable)
{
    // dump(parse(dump(x))) == dump(x): the reports the farm writes
    // re-parse to the same document.
    Value o = Value::object();
    o.set("name", "minmax/ximd");
    o.set("ok", true);
    o.set("cycles", std::uint64_t{769});
    Value arr = Value::array();
    arr.push(1);
    arr.push(2.5);
    arr.push("s");
    o.set("items", std::move(arr));
    const std::string once = o.dump(2);
    EXPECT_EQ(parseOk(once).dump(2), once);
}

TEST(Json, QuoteEscapes)
{
    EXPECT_EQ(Writer().string("a\"b").str(), "\"a\\\"b\"");
    EXPECT_EQ(Writer().string("tab\t").str(), "\"tab\\t\"");
    EXPECT_EQ(Writer().string(std::string("\x01\r\\", 3)).str(),
              "\"\\u0001\\r\\\\\"");
}

/** A tree with every kind, empty containers below the top level. */
Value
sampleTree()
{
    Value o = Value::object();
    o.set("big", 9007199254740992.0); // 2^53: still an integer
    o.set("bigger", 1152921504606846976.0); // 2^60: past 2^53
    o.set("neg_zero", -0.0);
    o.set("huge", 1e300);
    o.set("frac", 0.421001);
    o.set("ctl", std::string("a\x01\x1f\n\t\"\\z"));
    o.set("flags", Value::array());
    Value inner = Value::object();
    inner.set("none", Value());
    inner.set("empty", Value::object());
    Value arr = Value::array();
    arr.push(true);
    arr.push(Value::array());
    arr.push(-7);
    inner.set("list", std::move(arr));
    o.set("inner", std::move(inner));
    return o;
}

/** sampleTree() again, written as Writer calls rather than a tree. */
std::string
writeSample(int indent)
{
    Writer w(indent);
    w.beginObject();
    w.key("big").number(9007199254740992.0);
    w.key("bigger").number(1152921504606846976.0);
    w.key("neg_zero").number(-0.0);
    w.key("huge").number(1e300);
    w.key("frac").number(0.421001);
    w.key("ctl").string(std::string("a\x01\x1f\n\t\"\\z"));
    w.key("flags").beginArray().endArray();
    w.key("inner").beginObject();
    w.key("none").null();
    w.key("empty").beginObject().endObject();
    w.key("list").beginArray().boolean(true);
    w.beginArray().endArray();
    w.number(-7).endArray();
    w.endObject();
    w.endObject();
    return w.take();
}

TEST(Json, WriterMatchesDump)
{
    const Value tree = sampleTree();
    for (int indent : {0, 2, 4})
        EXPECT_EQ(writeSample(indent), tree.dump(indent))
            << "indent " << indent;
    // Pin the bytes themselves, not only the agreement.
    EXPECT_EQ(writeSample(0),
              R"({"big":9007199254740992,"bigger":1152921504606846976,)"
              R"("neg_zero":0,"huge":1e+300,"frac":0.421001,)"
              R"("ctl":"a\u0001\u001f\n\t\"\\z","flags":[],)"
              R"("inner":{"none":null,"empty":{},"list":[true,[],-7]}})");
    EXPECT_EQ(Writer(2).beginArray().number(1).beginObject().endObject()
                  .endArray().str(),
              "[\n  1,\n  {}\n]");
}

TEST(Json, EmbedWritesWhatParseThenDumpWrites)
{
    const std::string doc = sampleTree().dump(4);
    for (int indent : {0, 2, 4}) {
        Writer w(indent);
        w.beginArray().number(1);
        ASSERT_TRUE(w.embed(doc));
        w.endArray();

        Value expect = Value::array();
        expect.push(1);
        expect.push(parseOk(doc));
        EXPECT_EQ(w.str(), expect.dump(indent)) << "indent " << indent;
    }
}

TEST(Json, EmbedNormalizesNumbersAndEscapes)
{
    const auto embedded = [](std::string_view doc) {
        Writer w;
        EXPECT_TRUE(w.embed(doc)) << doc;
        return w.take();
    };
    EXPECT_EQ(embedded("0.500000"), "0.5");
    EXPECT_EQ(embedded("1E3"), "1000");
    EXPECT_EQ(embedded(R"("\/")"), R"("/")");
    EXPECT_EQ(embedded(R"("\u0041")"), R"("A")");
    EXPECT_EQ(embedded("{ \"a\" : [ 1 , 2.50 ] }"), R"({"a":[1,2.5]})");
}

TEST(Json, EmbedRejectsMalformedAndLeavesBufferUntouched)
{
    for (const char *bad : {"{", "[1,]", "1 2"}) {
        Writer w(2);
        w.beginObject().key("a").number(1).key("stats");
        const std::string before = w.str();
        EXPECT_FALSE(w.embed(bad)) << bad;
        EXPECT_EQ(w.str(), before) << bad;
        // The member whose value failed is omitted.
        w.endObject();
        EXPECT_EQ(w.str(), "{\n  \"a\": 1\n}") << bad;
    }
}

TEST(Json, FieldReaderReadsTypedFields)
{
    const Value doc = parseOk(
        R"({"s":"x","b":true,"u":4294967295,"big":18446744073709549568,)"
        R"("list":["a","b"]})");
    FieldReader f;
    std::string s;
    bool b = false;
    unsigned u = 0;
    std::uint64_t big = 0;
    std::vector<std::string> list;
    unsigned absent = 7;
    f.get("s", doc.find("s"), s);
    f.get("b", doc.find("b"), b);
    f.get("u", doc.find("u"), u);
    f.get("big", doc.find("big"), big);
    f.get("list", doc.find("list"), list);
    f.get("absent", doc.find("absent"), absent);
    ASSERT_TRUE(f.ok()) << f.error();
    EXPECT_EQ(s, "x");
    EXPECT_TRUE(b);
    EXPECT_EQ(u, 4294967295u);
    EXPECT_EQ(big, 18446744073709549568ull);
    EXPECT_EQ(list, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(absent, 7u);
}

TEST(Json, FieldReaderRejectsWithTheKeyAndKeepsTheFirstError)
{
    const auto rejectUnsigned = [](const char *text) {
        FieldReader f;
        unsigned dst = 5;
        const Value v = parseOk(text);
        EXPECT_FALSE(f.get("n", &v, dst)) << text;
        EXPECT_EQ(dst, 5u) << text;
        return f.error();
    };
    EXPECT_EQ(rejectUnsigned("\"0\""), "'n' must be a non-negative integer");
    EXPECT_EQ(rejectUnsigned("-1"), "'n' must be a non-negative integer");
    EXPECT_EQ(rejectUnsigned("1.5"), "'n' must be a non-negative integer");
    EXPECT_EQ(rejectUnsigned("4294967297"), "'n' must be at most 4294967295");
    EXPECT_EQ(rejectUnsigned("1e30"), "'n' must be at most 4294967295");

    FieldReader f;
    std::uint64_t seed = 0;
    const Value huge = parseOk("18446744073709551616");
    EXPECT_FALSE(f.get("seed", &huge, seed));
    EXPECT_NE(f.error().find("'seed'"), std::string::npos);

    // Later reads fail without touching their destination.
    bool flag = false;
    const Value yes = parseOk("true");
    EXPECT_FALSE(f.get("flag", &yes, flag));
    EXPECT_FALSE(flag);
    EXPECT_NE(f.error().find("'seed'"), std::string::npos);

    FieldReader g;
    std::string s;
    std::vector<std::string> list;
    const Value one = parseOk("1");
    const Value mixed = parseOk(R"(["a",1])");
    EXPECT_FALSE(g.get("s", &one, s));
    EXPECT_EQ(g.error(), "'s' must be a string");
    FieldReader h;
    EXPECT_FALSE(h.get("filter", &mixed, list));
    EXPECT_EQ(h.error(), "'filter' must be an array of strings");
}

} // namespace
} // namespace ximd::json
