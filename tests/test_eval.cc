/** @file Unit tests for the evaluation harness and table printer. */

#include <gtest/gtest.h>

#include "eval/harness.hh"
#include "eval/tables.hh"

namespace fits::eval {
namespace {

TEST(PrecisionStats, TopNCounting)
{
    PrecisionStats stats;
    stats.addRank(1);
    stats.addRank(2);
    stats.addRank(3);
    stats.addRank(-1);
    EXPECT_EQ(stats.total, 4);
    EXPECT_DOUBLE_EQ(stats.p1(), 0.25);
    EXPECT_DOUBLE_EQ(stats.p2(), 0.50);
    EXPECT_DOUBLE_EQ(stats.p3(), 0.75);
}

TEST(PrecisionStats, EmptyIsZero)
{
    PrecisionStats stats;
    EXPECT_DOUBLE_EQ(stats.p1(), 0.0);
    EXPECT_DOUBLE_EQ(stats.p3(), 0.0);
}

TEST(RankOfFirstIts, FindsGroundTruthEntry)
{
    synth::GroundTruth truth;
    truth.itsFunctions = {0x2000};
    std::vector<core::RankedFunction> ranking(3);
    ranking[0].entry = 0x1000;
    ranking[1].entry = 0x2000;
    ranking[2].entry = 0x3000;
    EXPECT_EQ(rankOfFirstIts(ranking, truth), 2);
    truth.itsFunctions = {0x9999};
    EXPECT_EQ(rankOfFirstIts(ranking, truth), -1);
    EXPECT_EQ(rankOfFirstIts({}, truth), -1);
}

TEST(EngineStats, FalsePositiveRate)
{
    EngineStats stats;
    stats.alerts = 10;
    stats.bugs = 4;
    EXPECT_DOUBLE_EQ(stats.falsePositiveRate(), 0.6);
    EngineStats empty;
    EXPECT_DOUBLE_EQ(empty.falsePositiveRate(), 0.0);
}

TEST(EngineStats, Accumulation)
{
    EngineStats a, b;
    a.alerts = 3;
    a.bugs = 1;
    a.ms = 2.0;
    b.alerts = 5;
    b.bugs = 2;
    b.ms = 3.0;
    a += b;
    EXPECT_EQ(a.alerts, 8u);
    EXPECT_EQ(a.bugs, 3u);
    EXPECT_DOUBLE_EQ(a.ms, 5.0);

    // PrecisionStats merges the same way (per-vendor into overall).
    PrecisionStats vendor, overall;
    vendor.addRank(1);
    overall.addRank(3);
    overall += vendor;
    EXPECT_EQ(overall.total, 2);
    EXPECT_EQ(overall.top1, 1);
    EXPECT_EQ(overall.top2, 1);
    EXPECT_EQ(overall.top3, 2);
}

TEST(ScoreReport, ClassifiesAgainstGroundTruth)
{
    synth::GroundTruth truth;
    truth.sinkSites.push_back({0x100, synth::SiteClass::RealBug,
                               synth::FlowKind::DirectGlobal,
                               "strcpy"});
    truth.sinkSites.push_back({0x200, synth::SiteClass::DeadGuard,
                               synth::FlowKind::DirectGlobal,
                               "strcpy"});

    std::vector<taint::Alert> alerts(3);
    alerts[0].sinkSite = 0x100; // true positive
    alerts[1].sinkSite = 0x200; // known non-bug site
    alerts[2].sinkSite = 0x300; // unknown site
    std::vector<ir::Addr> bugs;
    const EngineStats stats = scoreReport(alerts, truth, 1.5, &bugs);
    EXPECT_EQ(stats.alerts, 3u);
    EXPECT_EQ(stats.bugs, 1u);
    EXPECT_DOUBLE_EQ(stats.ms, 1.5);
    EXPECT_EQ(bugs, std::vector<ir::Addr>{0x100});
}

TEST(ScoreReport, DeduplicatesBugSites)
{
    synth::GroundTruth truth;
    truth.sinkSites.push_back({0x100, synth::SiteClass::RealBug,
                               synth::FlowKind::DirectGlobal,
                               "strcpy"});
    std::vector<taint::Alert> alerts(2);
    alerts[0].sinkSite = 0x100;
    alerts[1].sinkSite = 0x100;
    const EngineStats stats = scoreReport(alerts, truth, 0.0);
    EXPECT_EQ(stats.bugs, 1u);
}

TEST(Tables, Formatting)
{
    EXPECT_EQ(percent(0.888), "89%");
    EXPECT_EQ(percent(0.0), "0%");
    EXPECT_EQ(percent(1.0), "100%");
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(hmm(0), "0:00.000");
    EXPECT_EQ(hmm(61234), "1:01.234");
}

TEST(Tables, PrinterDoesNotCrash)
{
    TablePrinter table({"A", "B"});
    table.addRow({"1", "2"});
    table.addSeparator();
    table.addRow({"33", "4444"});
    table.addRow({"only-one"});
    table.print(); // visual output; must not throw
    SUCCEED();
}

} // namespace
} // namespace fits::eval
