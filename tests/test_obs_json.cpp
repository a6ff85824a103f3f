#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/phase_timer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using veriqc::obs::CounterRegistry;
using veriqc::obs::Json;
using veriqc::obs::JsonError;
using veriqc::obs::PhaseTimer;

// --- writer ------------------------------------------------------------------

TEST(JsonWriterTest, ScalarsSerializeCompactly) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(JsonWriterTest, DoublesKeepTheirKindThroughSerialization) {
  // Integral doubles gain a ".0" so re-parsing yields a Double, not an
  // Integer — the report schema distinguishes counts from measurements.
  EXPECT_EQ(Json(1.0).dump(), "1.0");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  const auto reparsed = Json::parse(Json(3.0).dump());
  EXPECT_EQ(reparsed.kind(), Json::Kind::Double);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(JsonWriterTest, StringsAreEscaped) {
  EXPECT_EQ(Json("a\"b\\c").dump(), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Json("line\nbreak\ttab").dump(), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(Json(std::string_view("\x01", 1)).dump(), "\"\\u0001\"");
}

TEST(JsonWriterTest, ObjectsPreserveInsertionOrder) {
  auto j = Json::object();
  j["zebra"] = 1;
  j["apple"] = 2;
  j["mango"] = 3;
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(JsonWriterTest, IndentedOutputIsStable) {
  auto j = Json::object();
  j["a"] = Json::array();
  j["a"].push_back(1);
  j["a"].push_back(2);
  j["b"] = Json::object();
  j["b"]["c"] = true;
  EXPECT_EQ(j.dump(2), "{\n  \"a\": [\n    1,\n    2\n  ],\n"
                       "  \"b\": {\n    \"c\": true\n  }\n}");
}

TEST(JsonWriterTest, EmptyContainersSerializeWithoutNewlines) {
  EXPECT_EQ(Json::array().dump(2), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");
}

// --- parser ------------------------------------------------------------------

TEST(JsonParserTest, RoundTripsNestedDocuments) {
  auto j = Json::object();
  j["name"] = "veriqc";
  j["count"] = 12;
  j["ratio"] = 0.375;
  j["flags"] = Json::array();
  j["flags"].push_back(true);
  j["flags"].push_back(nullptr);
  j["nested"] = Json::object();
  j["nested"]["deep"] = Json::array();
  j["nested"]["deep"].push_back("x");
  for (const int indent : {-1, 0, 2, 4}) {
    EXPECT_EQ(Json::parse(j.dump(indent)), j) << "indent " << indent;
  }
}

TEST(JsonParserTest, ParsesNumbersIntoIntegerOrDouble) {
  EXPECT_EQ(Json::parse("17").kind(), Json::Kind::Integer);
  EXPECT_EQ(Json::parse("-3").asInt(), -3);
  EXPECT_EQ(Json::parse("2.5").kind(), Json::Kind::Double);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble(), 1000.0);
  // Past int64 range the parser falls back to double instead of failing.
  EXPECT_EQ(Json::parse("99999999999999999999").kind(), Json::Kind::Double);
}

TEST(JsonParserTest, DecodesEscapes) {
  EXPECT_EQ(Json::parse("\"a\\u0041b\"").asString(), "aAb");
  EXPECT_EQ(Json::parse("\"\\n\\t\\\\\"").asString(), "\n\t\\");
  // Non-ASCII \u escapes decode to UTF-8.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").asString(), "\xc3\xa9");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.2.3",
        "\"unterminated", "{\"a\":1} trailing", "[1 2]", "nan"}) {
    EXPECT_THROW((void)Json::parse(bad), JsonError) << bad;
  }
}

TEST(JsonParserTest, AccessorsThrowOnKindMismatch) {
  const auto j = Json::parse("{\"a\":1}");
  EXPECT_THROW((void)j.asArray(), JsonError);
  EXPECT_THROW((void)j.at("missing"), JsonError);
  EXPECT_THROW((void)j.at("a").asString(), JsonError);
  EXPECT_EQ(j.at("a").asInt(), 1);
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_FALSE(j.contains("missing"));
}

TEST(JsonEqualityTest, IntegerAndDoubleCompareByValue) {
  EXPECT_EQ(Json(1), Json(1.0));
  EXPECT_NE(Json(1), Json(1.5));
  EXPECT_NE(Json(1), Json("1"));
}

TEST(JsonLayoutTest, NodeHoldsOneAlternative) {
  // veriqcd clients keep whole report trees, so a node holds its largest
  // alternative plus an index, never every alternative side by side.
  EXPECT_LE(sizeof(Json), sizeof(std::string) + sizeof(void*));
  auto j = Json::object();
  j["a"] = Json::array();
  j["a"].push_back(true);
  EXPECT_EQ(j.kind(), Json::Kind::Object);
  EXPECT_EQ(j.at("a").kind(), Json::Kind::Array);
  EXPECT_EQ(j.at("a").asArray().front().kind(), Json::Kind::Boolean);
  EXPECT_EQ(Json(nullptr).kind(), Json::Kind::Null);
  EXPECT_EQ(Json(7).kind(), Json::Kind::Integer);
  EXPECT_EQ(Json(7.5).kind(), Json::Kind::Double);
  EXPECT_EQ(Json("s").kind(), Json::Kind::String);
}

// --- phase timer -------------------------------------------------------------

TEST(PhaseTimerTest, ScopesRecordNamedSpans) {
  PhaseTimer timer;
  {
    auto scope = timer.scope("work");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto spans = timer.spans();
  ASSERT_EQ(spans.size(), 1U);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_GE(spans[0].startSeconds, 0.0);
  EXPECT_GT(spans[0].durationSeconds, 0.0);
}

TEST(PhaseTimerTest, FinishIsIdempotent) {
  PhaseTimer timer;
  auto scope = timer.scope("once");
  scope.finish();
  scope.finish(); // destruction must not double-record either
  EXPECT_EQ(timer.spans().size(), 1U);
}

TEST(PhaseTimerTest, ConcurrentScopesAreAllRecorded) {
  PhaseTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&timer, i] {
      auto scope = timer.scope("t" + std::to_string(i));
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(timer.spans().size(), 8U);
}

TEST(PhaseTimerTest, RestartDropsSpans) {
  PhaseTimer timer;
  timer.record("old", 0.0, 1.0);
  timer.restart();
  EXPECT_TRUE(timer.spans().empty());
}

// --- counters ----------------------------------------------------------------

TEST(CounterRegistryTest, SumAndMaxSemantics) {
  CounterRegistry registry;
  registry.add("lookups", 10);
  registry.add("lookups", 5);
  registry.max("peak", 100);
  registry.max("peak", 40); // lower value must not win
  EXPECT_DOUBLE_EQ(registry.value("lookups"), 15.0);
  EXPECT_DOUBLE_EQ(registry.value("peak"), 100.0);
  EXPECT_DOUBLE_EQ(registry.value("absent"), 0.0);
  EXPECT_TRUE(registry.contains("peak"));
  EXPECT_FALSE(registry.contains("absent"));
}

TEST(CounterRegistryTest, MergeRespectsCounterKind) {
  CounterRegistry a;
  a.add("hits", 3);
  a.max("peak", 50);
  CounterRegistry b;
  b.add("hits", 4);
  b.max("peak", 20);
  b.add("only_b", 1);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value("hits"), 7.0);  // sums add
  EXPECT_DOUBLE_EQ(a.value("peak"), 50.0); // gauges take the max
  EXPECT_DOUBLE_EQ(a.value("only_b"), 1.0);
  EXPECT_EQ(a.size(), 3U);
}

TEST(CounterRegistryTest, EntriesAreSortedByName) {
  CounterRegistry registry;
  registry.add("zeta", 1);
  registry.add("alpha", 2);
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.entries()) {
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "zeta"}));
}
