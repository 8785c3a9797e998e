// Unit and property tests for the DvP core: domains (Π), partitionable
// operators and their algebraic laws (§4.1), catalog and fragment store.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "dvpcore/catalog.h"
#include "dvpcore/domain.h"
#include "dvpcore/operators.h"
#include "dvpcore/value_store.h"

namespace dvp::core {
namespace {

// ---- Domains ------------------------------------------------------------------

TEST(DomainTest, CountPiIsSummation) {
  std::vector<Value> frags{25, 25, 25, 25};
  EXPECT_EQ(CountDomain::Instance().Pi(frags), 100);
  EXPECT_EQ(CountDomain::Instance().Pi(std::span<const Value>{}), 0);
}

TEST(DomainTest, CountValidityIsNonNegative) {
  const auto& d = CountDomain::Instance();
  EXPECT_TRUE(d.ValidFragment(0));
  EXPECT_TRUE(d.ValidFragment(7));
  EXPECT_FALSE(d.ValidFragment(-1));
  EXPECT_EQ(d.Identity(), 0);
}

TEST(DomainTest, CountMaxShippable) {
  const auto& d = CountDomain::Instance();
  EXPECT_EQ(d.MaxShippable(10), 10);
  EXPECT_EQ(d.MaxShippable(0), 0);
}

TEST(DomainTest, MoneyMirrorsCount) {
  const auto& d = MoneyDomain::Instance();
  std::vector<Value> frags{10'00, 5'50};
  EXPECT_EQ(d.Pi(frags), 15'50);
  EXPECT_FALSE(d.ValidFragment(-1));
  EXPECT_EQ(d.name(), "money");
}

TEST(DomainTest, GaugeAllowsNegativeFragments) {
  const auto& d = GaugeDomain::Instance();
  std::vector<Value> frags{-10, 25};
  EXPECT_EQ(d.Pi(frags), 15);
  EXPECT_TRUE(d.ValidFragment(-100));
  EXPECT_EQ(d.MaxShippable(-5), -5);
}

// ---- Operators -------------------------------------------------------------------

TEST(OperatorTest, IncrementAlwaysApplies) {
  IncrementOp op(5);
  auto out = op.Apply(CountDomain::Instance(), 0);
  ASSERT_TRUE(out.applied());
  EXPECT_EQ(out.new_value, 5);
  EXPECT_EQ(out.delta, 5);
  EXPECT_EQ(op.ApplyToTotal(10), 15);
  EXPECT_EQ(op.delta(), 5);
}

TEST(OperatorTest, DecrementAppliesWhenCovered) {
  BoundedDecrementOp op(5);
  auto out = op.Apply(CountDomain::Instance(), 8);
  ASSERT_TRUE(out.applied());
  EXPECT_EQ(out.new_value, 3);
  EXPECT_EQ(out.delta, -5);
}

TEST(OperatorTest, DecrementExactToZeroApplies) {
  BoundedDecrementOp op(8);
  auto out = op.Apply(CountDomain::Instance(), 8);
  ASSERT_TRUE(out.applied());
  EXPECT_EQ(out.new_value, 0);
}

TEST(OperatorTest, DecrementShortfallIsReported) {
  BoundedDecrementOp op(10);
  auto out = op.Apply(CountDomain::Instance(), 3);
  ASSERT_TRUE(out.insufficient());
  EXPECT_EQ(out.shortfall, 7);
}

TEST(OperatorTest, DecrementOnGaugeNeverInsufficient) {
  BoundedDecrementOp op(10);
  auto out = op.Apply(GaugeDomain::Instance(), 3);
  ASSERT_TRUE(out.applied());
  EXPECT_EQ(out.new_value, -7);
}

TEST(OperatorTest, IneffectiveTotalApplicationIsNoOp) {
  BoundedDecrementOp op(10);
  EXPECT_EQ(op.ApplyToTotal(3), 3);  // "equivalent to a no-operation"
  EXPECT_EQ(op.ApplyToTotal(10), 0);
}

TEST(OperatorTest, Factories) {
  EXPECT_EQ(MakeIncrement(3)->delta(), 3);
  EXPECT_EQ(MakeDecrement(3)->delta(), -3);
  EXPECT_EQ(MakeDecrement(3)->name(), "decr(3)");
}

// The §4.1 law: an effective application to one fragment changes Π exactly
// as the operator applied to the whole value would.
class PartitionableLawTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionableLawTest, FragmentApplicationEqualsWholeApplication) {
  Rng rng(GetParam());
  const Domain& d = CountDomain::Instance();
  for (int trial = 0; trial < 200; ++trial) {
    // Random multiset of fragments.
    size_t n = 1 + rng.NextBounded(6);
    std::vector<Value> frags(n);
    for (auto& f : frags) f = rng.NextInt(0, 40);
    Value total = d.Pi(frags);

    Value amount = rng.NextInt(1, 20);
    size_t target = rng.NextBounded(n);
    std::unique_ptr<PartitionableOp> op =
        rng.NextBool(0.5) ? MakeIncrement(amount) : MakeDecrement(amount);

    ApplyOutcome out = op->Apply(d, frags[target]);
    if (out.applied()) {
      frags[target] = out.new_value;
      EXPECT_EQ(d.Pi(frags), op->ApplyToTotal(total))
          << "g(Π(b)) != Π(b') for " << op->name();
      for (Value f : frags) EXPECT_TRUE(d.ValidFragment(f));
    } else {
      // Not effectively applicable to this fragment: the multiset must be
      // unchanged (no partial effects).
      EXPECT_EQ(d.Pi(frags), total);
    }
  }
}

TEST_P(PartitionableLawTest, OperatorsCommuteAcrossFragments) {
  // g(h(d)) = h(g(d)) when applied to disjoint fragments (§4.1).
  Rng rng(GetParam() + 1000);
  const Domain& d = CountDomain::Instance();
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Value> frags{rng.NextInt(0, 30), rng.NextInt(0, 30)};
    Value a1 = rng.NextInt(1, 10), a2 = rng.NextInt(1, 10);
    auto g = rng.NextBool(0.5) ? MakeIncrement(a1) : MakeDecrement(a1);
    auto h = rng.NextBool(0.5) ? MakeIncrement(a2) : MakeDecrement(a2);

    // Order 1: g on fragment 0, then h on fragment 1.
    std::vector<Value> x = frags;
    auto og = g->Apply(d, x[0]);
    if (og.applied()) x[0] = og.new_value;
    auto oh = h->Apply(d, x[1]);
    if (oh.applied()) x[1] = oh.new_value;

    // Order 2: h first, then g.
    std::vector<Value> y = frags;
    auto oh2 = h->Apply(d, y[1]);
    if (oh2.applied()) y[1] = oh2.new_value;
    auto og2 = g->Apply(d, y[0]);
    if (og2.applied()) y[0] = og2.new_value;

    // Effectiveness on disjoint fragments is order-independent, so the
    // resulting multisets are identical.
    EXPECT_EQ(x, y);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionableLawTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- Catalog ----------------------------------------------------------------------

TEST(CatalogTest, AddAndLookup) {
  Catalog catalog;
  ItemId a = catalog.AddItem("seats", CountDomain::Instance(), 100);
  ItemId b = catalog.AddItem("cash", MoneyDomain::Instance(), 5000);
  EXPECT_EQ(catalog.num_items(), 2u);
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(catalog.info(a).name, "seats");
  EXPECT_EQ(catalog.info(b).initial_total, 5000);
  EXPECT_EQ(&catalog.domain(a), &CountDomain::Instance());
}

TEST(CatalogTest, FindByName) {
  Catalog catalog;
  catalog.AddItem("x", CountDomain::Instance(), 1);
  ItemId y = catalog.AddItem("y", CountDomain::Instance(), 2);
  auto found = catalog.Find("y");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), y);
  EXPECT_FALSE(catalog.Find("z").ok());
}

TEST(CatalogTest, AllItemsIsDense) {
  Catalog catalog;
  catalog.AddItem("a", CountDomain::Instance(), 1);
  catalog.AddItem("b", CountDomain::Instance(), 1);
  auto items = catalog.AllItems();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].value(), 0u);
  EXPECT_EQ(items[1].value(), 1u);
}

// A total its domain rejects as a fragment is refused where it enters the
// catalog, in every build type: no even split of a negative count is valid.
TEST(CatalogDeathTest, RefusesATotalItsDomainRejects) {
  Catalog catalog;
  EXPECT_DEATH(catalog.AddItem("seats", CountDomain::Instance(), -9),
               "initial total -9 is not a valid count value");
  EXPECT_DEATH(catalog.AddItem("cash", MoneyDomain::Instance(), -1),
               "not a valid money value");
  catalog.AddItem("zero", CountDomain::Instance(), 0);
  catalog.AddItem("net", GaugeDomain::Instance(), -9);
  EXPECT_EQ(catalog.num_items(), 2u);
}

// ---- ValueStore ---------------------------------------------------------------------

TEST(ValueStoreTest, StartsAtIdentity) {
  Catalog catalog;
  ItemId a = catalog.AddItem("a", CountDomain::Instance(), 100);
  ValueStore store(&catalog);
  EXPECT_EQ(store.value(a), 0);
  EXPECT_EQ(store.ts(a), Timestamp::Zero());
  EXPECT_EQ(store.num_items(), 1u);
}

TEST(ValueStoreTest, InstallAndMutate) {
  Catalog catalog;
  ItemId a = catalog.AddItem("a", CountDomain::Instance(), 100);
  ValueStore store(&catalog);
  store.Install(a, 25, Timestamp(3, SiteId(1)));
  EXPECT_EQ(store.value(a), 25);
  EXPECT_EQ(store.ts(a).counter(), 3u);
  store.SetValue(a, 13);
  store.SetTs(a, Timestamp(9, SiteId(2)));
  EXPECT_EQ(store.fragment(a).value, 13);
  EXPECT_EQ(store.fragment(a).ts, Timestamp(9, SiteId(2)));
}

// Sparse store: untouched items cost nothing; absent reads as identity, and
// residency tracks what was actually touched, not the catalog width.
TEST(ValueStoreTest, ResidencyTracksTouchedItemsNotCatalogWidth) {
  Catalog catalog;
  for (int i = 0; i < 1000; ++i) {
    catalog.AddItem("i" + std::to_string(i), CountDomain::Instance(), 10);
  }
  ValueStore store(&catalog);
  EXPECT_EQ(store.resident_count(), 0u);
  EXPECT_EQ(store.num_items(), 1000u);
  EXPECT_EQ(store.value(ItemId(999)), 0);  // absent = domain identity
  store.SetValue(ItemId(7), 3);
  store.Install(ItemId(400), 5, Timestamp(1, SiteId(0)));
  EXPECT_EQ(store.fragment(ItemId(7)).value, 3);
  EXPECT_EQ(store.fragment(ItemId(400)).value, 5);
  // Residency stays O(touched): the two writes; reads insert nothing.
  EXPECT_EQ(store.resident_count(), 2u);
  EXPECT_TRUE(store.resident_fragments().count(7));
  EXPECT_TRUE(store.resident_fragments().count(400));
}

// A boot rule makes an absent fragment read as the site's share of the
// item's initial total; the first write — a lock-only SetTs included —
// materialises it at that share, never at the identity.
TEST(ValueStoreTest, AbsentFragmentsReadAsTheBootShare) {
  Catalog catalog;
  ItemId a = catalog.AddItem("a", CountDomain::Instance(), 10);
  ItemId b = catalog.AddItem("b", CountDomain::Instance(), 7);
  ValueStore store(&catalog);
  store.set_boot_rule(BootRule::Even(3, SiteId(0)));
  EXPECT_EQ(store.value(a), 4);  // 4/3/3
  EXPECT_EQ(store.value(b), 3);  // 3/2/2
  EXPECT_EQ(store.resident_count(), 0u);
  store.SetTs(b, Timestamp(5, SiteId(0)));
  EXPECT_EQ(store.resident_count(), 1u);
  EXPECT_EQ(store.fragment(b).value, 3);
  EXPECT_EQ(store.fragment(b).ts, Timestamp(5, SiteId(0)));

  store.set_boot_rule(BootRule::Homed(3, SiteId(1)));
  EXPECT_EQ(store.value(a), 0);  // item 0 is homed at site 0
  EXPECT_EQ(store.value(b), 3);  // resident: keeps its written value
}

TEST(BootRuleTest, SharesOfOneBootPartitionEveryTotal) {
  Catalog catalog;
  for (Value total : {0, 1, 7, 100, 101}) {
    catalog.AddItem("t" + std::to_string(total), CountDomain::Instance(),
                    total);
  }
  for (uint32_t n : {1u, 3u, 4u}) {
    for (ItemId item : catalog.AllItems()) {
      Value even = 0;
      Value homed = 0;
      for (uint32_t s = 0; s < n; ++s) {
        even += BootRule::Even(n, SiteId(s)).Share(catalog, item);
        homed += BootRule::Homed(n, SiteId(s)).Share(catalog, item);
        EXPECT_TRUE(BootRule::Even(n, SiteId(s)).Covers(item));
        EXPECT_EQ(BootRule::Homed(n, SiteId(s)).Covers(item),
                  item.value() % n == s);
      }
      EXPECT_EQ(even, catalog.info(item).initial_total);
      EXPECT_EQ(homed, catalog.info(item).initial_total);
      EXPECT_EQ(BootRule{}.Share(catalog, item), 0);
      EXPECT_FALSE(BootRule{}.Covers(item));
    }
  }
}

// ForEachCovered visits exactly the items Covers accepts, in id order.
TEST(BootRuleTest, ForEachCoveredStepsThroughTheCoveredItems) {
  auto covered = [](BootRule rule) {
    std::vector<uint32_t> out;
    rule.ForEachCovered(10, [&](ItemId item) { out.push_back(item.value()); });
    return out;
  };
  EXPECT_EQ(covered(BootRule::Homed(3, SiteId(1))),
            (std::vector<uint32_t>{1, 4, 7}));
  EXPECT_EQ(covered(BootRule::Even(3, SiteId(2))),
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_TRUE(covered(BootRule{}).empty());
}

// Regression: an out-of-catalog item used to index fragments_[item.value()]
// unchecked — UB in release builds. Reads now return the identity fragment.
TEST(ValueStoreTest, OutOfCatalogReadIsIdentityNotUb) {
#ifdef NDEBUG
  Catalog catalog;
  catalog.AddItem("only", CountDomain::Instance(), 100);
  ValueStore store(&catalog);
  ItemId beyond(17);  // way past the 1-item catalog
  EXPECT_EQ(store.value(beyond), 0);
  EXPECT_EQ(store.ts(beyond), Timestamp::Zero());
  store.SetValue(beyond, 5);  // ignored, must not crash or materialize
  EXPECT_EQ(store.resident_count(), 0u);
#else
  GTEST_SKIP() << "debug builds assert on out-of-catalog access";
#endif
}

TEST(ValueStoreTest, ObserverFiresOnWritesOnly) {
  Catalog catalog;
  ItemId a = catalog.AddItem("a", CountDomain::Instance(), 100);
  ItemId b = catalog.AddItem("b", CountDomain::Instance(), 100);
  ValueStore store(&catalog);
  std::vector<uint32_t> seen;
  store.set_observer([&seen](ItemId item) { seen.push_back(item.value()); });
  (void)store.value(a);                 // read: no event
  store.SetTs(a, Timestamp(1, SiteId(0)));  // ts-only: no event
  store.SetValue(a, 4);
  store.Install(b, 9, Timestamp(2, SiteId(1)));
  store.SetValue(a, 6);  // already resident: still an event (value changed)
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 1, 0}));
}

}  // namespace
}  // namespace dvp::core
