// The 2009 SimpleDB query languages: bracket Query expressions and SELECT.
// Includes a brute-force reference evaluator cross-checked against the
// indexed evaluator over randomized domains.
#include <gtest/gtest.h>

#include "aws/simpledb/query_language.hpp"
#include "util/rng.hpp"

namespace {

using namespace provcloud::aws;
using namespace provcloud::aws::sdbql;

SdbDomainData make_domain() {
  SdbDomainData d;
  d.apply_put("item1", {{"color", "red", false}, {"size", "small", false}});
  d.apply_put("item2", {{"color", "blue", false}, {"size", "large", false}});
  d.apply_put("item3", {{"color", "red", false},
                        {"color", "blue", false},
                        {"size", "medium", false}});
  d.apply_put("item4", {{"shape", "round", false}});
  d.apply_put("item5", {{"color", "green", false}, {"year", "1978", false}});
  return d;
}

std::set<std::string> run(const SdbDomainData& d, const std::string& expr) {
  auto parsed = parse_query(expr);
  EXPECT_TRUE(parsed.has_value()) << (parsed.has_value() ? "" : parsed.error());
  return evaluate(*parsed, d);
}

TEST(QueryLangTest, SimpleEquality) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['color' = 'red']"),
            (std::set<std::string>{"item1", "item3"}));
}

TEST(QueryLangTest, NotEquals) {
  const SdbDomainData d = make_domain();
  // item3 has a blue value too but also red != blue -> matches (some value
  // satisfies the comparison).
  EXPECT_EQ(run(d, "['color' != 'red']"),
            (std::set<std::string>{"item2", "item3", "item5"}));
}

TEST(QueryLangTest, RangeOnSameAttributeWithAnd) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['year' > '1975' and 'year' < '1980']"),
            (std::set<std::string>{"item5"}));
}

TEST(QueryLangTest, AndChainNeedsSingleSatisfyingValue) {
  SdbDomainData d;
  // Values "1" and "9": no single value is both > '2' and < '8'.
  d.apply_put("i", {{"a", "1", false}, {"a", "9", false}});
  EXPECT_TRUE(run(d, "['a' > '2' and 'a' < '8']").empty());
  // Adding "5" satisfies the chain with one value.
  d.apply_put("i", {{"a", "5", false}});
  EXPECT_EQ(run(d, "['a' > '2' and 'a' < '8']"),
            (std::set<std::string>{"i"}));
}

TEST(QueryLangTest, OrWithinPredicate) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['color' = 'red' or 'color' = 'green']"),
            (std::set<std::string>{"item1", "item3", "item5"}));
}

TEST(QueryLangTest, StartsWith) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['size' starts-with 'm']"),
            (std::set<std::string>{"item3"}));
}

TEST(QueryLangTest, LexicographicComparison) {
  SdbDomainData d;
  d.apply_put("a", {{"v", "10", false}});
  d.apply_put("b", {{"v", "9", false}});
  // Strings compare lexicographically: "10" < "9".
  EXPECT_EQ(run(d, "['v' < '5']"), (std::set<std::string>{"a"}));
}

TEST(QueryLangTest, UnionCombinesPredicates) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['color' = 'green'] union ['shape' = 'round']"),
            (std::set<std::string>{"item4", "item5"}));
}

TEST(QueryLangTest, IntersectionAcrossAttributes) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run(d, "['color' = 'red'] intersection ['size' = 'small']"),
            (std::set<std::string>{"item1"}));
}

TEST(QueryLangTest, NotSelectsCarriersThatDoNotMatch) {
  const SdbDomainData d = make_domain();
  // `not` returns items that HAVE the attribute but fail the predicate:
  // item4 (no color) is excluded.
  EXPECT_EQ(run(d, "not ['color' = 'red']"),
            (std::set<std::string>{"item2", "item5"}));
}

TEST(QueryLangTest, LeftAssociativeChain) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(
      run(d, "['color' = 'red'] union ['color' = 'blue'] intersection "
             "['size' = 'large']"),
      (std::set<std::string>{"item2"}));
}

TEST(QueryLangTest, MissingAttributeMatchesNothing) {
  const SdbDomainData d = make_domain();
  EXPECT_TRUE(run(d, "['nope' = 'x']").empty());
}

TEST(QueryLangTest, CrossAttributePredicateRejected) {
  auto parsed = parse_query("['a' = '1' and 'b' = '2']");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().find("same"), std::string::npos);
}

struct BadExpression {
  const char* name;
  const char* text;
};

// Prints the case's name, so the parameterised test names stay the same
// from build to build instead of showing the address of the text.
void PrintTo(const BadExpression& e, std::ostream* os) { *os << e.name; }

class QueryLangRejects : public ::testing::TestWithParam<BadExpression> {};

TEST_P(QueryLangRejects, MalformedExpressions) {
  EXPECT_FALSE(parse_query(GetParam().text).has_value()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Bad, QueryLangRejects,
    ::testing::Values(
        BadExpression{"BareOpenBracket", "["},
        BadExpression{"UnterminatedName", "[']"},
        BadExpression{"UnterminatedValue", "['a' ='"},
        BadExpression{"MissingOperator", "['a' 'b']"},
        BadExpression{"TrailingGarbage", "['a' = 'b'] garbage ['c' = 'd']"},
        BadExpression{"DanglingUnion", "['a' = 'b'] union"},
        BadExpression{"BareNot", "not"},
        BadExpression{"DanglingAnd", "['a' = 'b' and]"},
        BadExpression{"NoBrackets", "hello"}));

TEST(QueryLangTest, QuoteEscaping) {
  SdbDomainData d;
  d.apply_put("i", {{"name", "it's", false}});
  EXPECT_EQ(run(d, "['name' = 'it''s']"), (std::set<std::string>{"i"}));
}

// --- SELECT ---

TEST(SelectTest, ParseStarFromDomain) {
  auto s = parse_select("select * from mydomain");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->output, SelectOutput::kAllAttributes);
  EXPECT_EQ(s->domain, "mydomain");
  EXPECT_EQ(s->where, nullptr);
}

TEST(SelectTest, ParseItemName) {
  auto s = parse_select("select itemName() from d");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->output, SelectOutput::kItemName);
}

TEST(SelectTest, ParseCount) {
  auto s = parse_select("select count(*) from d");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->output, SelectOutput::kCount);
}

TEST(SelectTest, ParseAttributeList) {
  auto s = parse_select("select color, size from d");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->output, SelectOutput::kAttributeList);
  EXPECT_EQ(s->output_attributes,
            (std::vector<std::string>{"color", "size"}));
}

TEST(SelectTest, ParseLimit) {
  auto s = parse_select("select * from d limit 7");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->limit, 7u);
}

TEST(SelectTest, LimitCappedAt250) {
  auto s = parse_select("select * from d limit 100000");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->limit, kSdbMaxQueryResults);
}

std::set<std::string> run_where(const SdbDomainData& d,
                                const std::string& select) {
  auto s = parse_select(select);
  EXPECT_TRUE(s.has_value()) << (s.has_value() ? "" : s.error());
  return evaluate_where(s->where.get(), d);
}

TEST(SelectTest, WhereEquality) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where color = 'red'"),
            (std::set<std::string>{"item1", "item3"}));
}

TEST(SelectTest, WhereAndOrParens) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where (color = 'red' and "
                         "size = 'small') or shape = 'round'"),
            (std::set<std::string>{"item1", "item4"}));
}

TEST(SelectTest, WhereNot) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where not color = 'red'"),
            (std::set<std::string>{"item2", "item4", "item5"}));
}

TEST(SelectTest, WhereLike) {
  SdbDomainData d;
  d.apply_put("a", {{"name", "blast/hits1.out", false}});
  d.apply_put("b", {{"name", "blast/query1.fa", false}});
  d.apply_put("c", {{"name", "other.txt", false}});
  EXPECT_EQ(run_where(d, "select * from d where name like 'blast/%'"),
            (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(run_where(d, "select * from d where name like '%.out'"),
            (std::set<std::string>{"a"}));
  EXPECT_EQ(run_where(d, "select * from d where name like '%hits%'"),
            (std::set<std::string>{"a"}));
}

TEST(SelectTest, WhereIsNull) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where color is null"),
            (std::set<std::string>{"item4"}));
  EXPECT_EQ(run_where(d, "select * from d where shape is not null"),
            (std::set<std::string>{"item4"}));
}

TEST(SelectTest, WhereItemName) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where itemName() = 'item2'"),
            (std::set<std::string>{"item2"}));
  EXPECT_EQ(run_where(d, "select * from d where itemName() like 'item%'"),
            (std::set<std::string>{"item1", "item2", "item3", "item4",
                                   "item5"}));
}

TEST(SelectTest, WhereIn) {
  const SdbDomainData d = make_domain();
  EXPECT_EQ(run_where(d, "select * from d where color in ('red', 'green')"),
            (std::set<std::string>{"item1", "item3", "item5"}));
  EXPECT_TRUE(run_where(d, "select * from d where color in ('magenta')")
                  .empty());
}

TEST(SelectTest, WhereBetween) {
  SdbDomainData d;
  d.apply_put("a", {{"year", "1975", false}});
  d.apply_put("b", {{"year", "1978", false}});
  d.apply_put("c", {{"year", "1981", false}});
  EXPECT_EQ(run_where(d, "select * from d where year between '1975' and "
                         "'1979'"),
            (std::set<std::string>{"a", "b"}));
}

TEST(SelectTest, EveryQuantifier) {
  SdbDomainData d;
  d.apply_put("all_red", {{"color", "red", false}});
  d.apply_put("mixed", {{"color", "red", false}, {"color", "blue", false}});
  // Default (some value matches): both items.
  EXPECT_EQ(run_where(d, "select * from d where color = 'red'"),
            (std::set<std::string>{"all_red", "mixed"}));
  // every(): only the item where all values match.
  EXPECT_EQ(run_where(d, "select * from d where every(color) = 'red'"),
            (std::set<std::string>{"all_red"}));
}

TEST(SelectTest, OrderByRequiresConstraint) {
  // The real service rejects ordering on an unconstrained attribute.
  EXPECT_FALSE(parse_select("select * from d order by color").has_value());
  EXPECT_TRUE(parse_select("select * from d where color is not null "
                           "order by color")
                  .has_value());
  EXPECT_TRUE(parse_select("select * from d order by itemName()").has_value());
}

TEST(SelectTest, OrderByParsesDirection) {
  auto s = parse_select(
      "select * from d where year > '0' order by year desc limit 3");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->order_by, "year");
  EXPECT_TRUE(s->order_descending);
  EXPECT_EQ(s->limit, 3u);
}

TEST(SelectTest, OrderByValueSortsResults) {
  SdbDomainData d;
  d.apply_put("i1", {{"year", "1981", false}});
  d.apply_put("i2", {{"year", "1975", false}});
  d.apply_put("i3", {{"year", "1978", false}});
  auto asc = parse_select(
      "select * from d where year > '0' order by year");
  ASSERT_TRUE(asc.has_value());
  EXPECT_EQ(evaluate_select_order(*asc, d),
            (std::vector<std::string>{"i2", "i3", "i1"}));
  auto desc = parse_select(
      "select * from d where year > '0' order by year desc");
  ASSERT_TRUE(desc.has_value());
  EXPECT_EQ(evaluate_select_order(*desc, d),
            (std::vector<std::string>{"i1", "i3", "i2"}));
}

TEST(SelectTest, OrderByItemNameDescending) {
  SdbDomainData d;
  d.apply_put("a", {{"x", "1", false}});
  d.apply_put("b", {{"x", "1", false}});
  auto s = parse_select("select * from d order by itemName() desc");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(evaluate_select_order(*s, d),
            (std::vector<std::string>{"b", "a"}));
}

TEST(SelectTest, RejectsMalformed) {
  EXPECT_FALSE(parse_select("selec * from d").has_value());
  EXPECT_FALSE(parse_select("select * from").has_value());
  EXPECT_FALSE(parse_select("select * from d where").has_value());
  EXPECT_FALSE(parse_select("select * from d where a = ").has_value());
  EXPECT_FALSE(parse_select("select count(* from d").has_value());
  EXPECT_FALSE(parse_select("select * from d limit x").has_value());
  EXPECT_FALSE(parse_select("select * from d where a in ()").has_value());
  EXPECT_FALSE(parse_select("select * from d where a in ('x'").has_value());
  EXPECT_FALSE(
      parse_select("select * from d where a between 'x'").has_value());
  EXPECT_FALSE(parse_select("select * from d where every color = 'x'")
                   .has_value());
  EXPECT_FALSE(parse_select("select * from d order by").has_value());
}

// --- randomized cross-check against a brute-force evaluator ---

bool ref_compare(const std::string& lhs, CompareOp op, const std::string& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
    case CompareOp::kStartsWith:
      return lhs.rfind(rhs, 0) == 0;
  }
  return false;
}

std::set<std::string> ref_predicate(const Predicate& p,
                                    const SdbDomainData& d) {
  std::set<std::string> out;
  for (const auto& [name, item] : d.items) {
    auto attr = item.find(p.attribute);
    if (attr == item.end()) continue;
    bool match = false;
    for (const auto& chain : p.or_groups) {
      for (const auto& value : attr->second) {
        bool all = true;
        for (const auto& cmp : chain)
          all = all && ref_compare(value, cmp.op, cmp.value);
        if (all) {
          match = true;
          break;
        }
      }
      if (match) break;
    }
    if (match != p.negated) out.insert(name);
  }
  return out;
}

class QueryLangFuzz : public ::testing::TestWithParam<int> {};

TEST_P(QueryLangFuzz, IndexedEvaluatorMatchesBruteForce) {
  provcloud::util::Rng rng(GetParam());
  SdbDomainData d;
  const std::vector<std::string> attrs = {"a", "b", "c"};
  const std::vector<std::string> values = {"1", "2", "3", "10", "x", "xy"};
  for (int i = 0; i < 40; ++i) {
    std::vector<SdbReplaceableAttribute> put;
    const std::size_t n = 1 + rng.next_below(4);
    for (std::size_t j = 0; j < n; ++j)
      put.push_back({attrs[rng.next_below(attrs.size())],
                     values[rng.next_below(values.size())], false});
    d.apply_put("item" + std::to_string(i), put);
  }
  const std::vector<const char*> ops = {"=", "!=", "<", "<=", ">", ">=",
                                        "starts-with"};
  for (int trial = 0; trial < 200; ++trial) {
    const std::string attr = attrs[rng.next_below(attrs.size())];
    std::string expr = "['" + attr + "' " + ops[rng.next_below(ops.size())] +
                       " '" + values[rng.next_below(values.size())] + "'";
    if (rng.next_bool(0.5))
      expr += std::string(" ") + (rng.next_bool(0.5) ? "and" : "or") + " '" +
              attr + "' " + ops[rng.next_below(ops.size())] + " '" +
              values[rng.next_below(values.size())] + "'";
    expr += "]";
    if (rng.next_bool(0.3)) expr = "not " + expr;

    auto parsed = parse_query(expr);
    ASSERT_TRUE(parsed.has_value()) << expr;
    ASSERT_EQ(parsed->predicates.size(), 1u);
    EXPECT_EQ(evaluate(*parsed, d), ref_predicate(parsed->predicates[0], d))
        << expr;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryLangFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
