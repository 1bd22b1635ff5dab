/** @file Pipeline robustness on real malformed input: the
 * support::Deadline cancel token and expired stage budgets,
 * truncated and bit-flipped whole images, hand-made FWIMG containers
 * whose file table is broken behind a valid checksum, an image whose
 * only executable does not parse, payload mutations that pass the
 * checksum, and an image repacked without its libraries. Every case
 * must end as a typed failure or a (possibly degraded) result, never
 * a crash. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "binary/bytebuf.hh"
#include "binary/fbin.hh"
#include "core/behavior_io.hh"
#include "core/pipeline.hh"
#include "eval/harness.hh"
#include "firmware/fwimg.hh"
#include "support/deadline.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

/** One small-but-complete firmware sample shared within a test. */
const synth::GeneratedFirmware &
sampleFw()
{
    static const synth::GeneratedFirmware fw = [] {
        synth::SampleSpec spec;
        spec.profile = synth::tendaProfile();
        spec.profile.minCustomFns = 40;
        spec.profile.maxCustomFns = 60;
        spec.product = "AC6";
        spec.version = "V1";
        spec.name = "robustness-sample";
        spec.seed = 0xc0a5;
        return synth::generateFirmware(spec);
    }();
    return fw;
}

/** The unpacked files of sampleFw(). */
const std::vector<fw::FileEntry> &
sampleFiles()
{
    static const std::vector<fw::FileEntry> files = [] {
        auto unpacked = fw::unpackFirmware(sampleFw().bytes);
        EXPECT_TRUE(unpacked) << unpacked.errorMessage();
        return unpacked.take().filesystem.files();
    }();
    return files;
}

/** A plain FWIMG file table over `files`, laid out as packFirmware
 * writes it. */
std::vector<std::uint8_t>
fileTable(const std::vector<fw::FileEntry> &files)
{
    bin::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(files.size()));
    for (const auto &file : files) {
        w.str(file.path);
        w.u8(static_cast<std::uint8_t>(file.type));
        w.u32(static_cast<std::uint32_t>(file.bytes.size()));
        w.raw(file.bytes);
    }
    return w.take();
}

/** A hand-made FWIMG container around `payload`: an Encoding::None
 * header whose checksum matches, so the unpacker always gets past
 * the container checks and into the file table. */
std::vector<std::uint8_t>
plainImage(const std::vector<std::uint8_t> &payload)
{
    bin::ByteWriter w;
    for (const char m : {'F', 'W', 'I', 'M'})
        w.u8(static_cast<std::uint8_t>(m));
    w.u32(3); // format version
    w.str("ACME");
    w.str("AC1");
    w.str("V1");
    w.u8(static_cast<std::uint8_t>(fw::Encoding::None));
    w.u64(support::hash64(payload.data(), payload.size()));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
    return w.take();
}

// ---- deadlines ---------------------------------------------------------

TEST(Deadline, DefaultNeverExpires)
{
    const support::Deadline d;
    EXPECT_FALSE(d.active());
    EXPECT_FALSE(d.expired());
    for (std::size_t i = 0; i < 1024; ++i)
        EXPECT_FALSE(d.expiredCoarse(i));
    EXPECT_GT(d.remainingMs(), 1e12);
}

TEST(Deadline, AfterMsExpiresAndCoarseChecksAmortize)
{
    const auto expired = support::Deadline::afterMs(-1.0);
    EXPECT_TRUE(expired.active());
    EXPECT_TRUE(expired.expired());
    EXPECT_LT(expired.remainingMs(), 0.0);
    // The coarse check only reads the clock every 256th iteration.
    EXPECT_TRUE(expired.expiredCoarse(0));
    EXPECT_FALSE(expired.expiredCoarse(1));
    EXPECT_FALSE(expired.expiredCoarse(255));
    EXPECT_TRUE(expired.expiredCoarse(256));

    // A budget past the clock's range saturates instead of
    // overflowing into a deadline in the past.
    for (const double ms : {1e9, 1e300,
                            std::numeric_limits<double>::infinity(),
                            std::nan("")}) {
        const auto distant = support::Deadline::afterMs(ms);
        EXPECT_TRUE(distant.active()) << ms;
        EXPECT_FALSE(distant.expired()) << ms;
        EXPECT_FALSE(distant.expiredCoarse(0)) << ms;
        EXPECT_GT(distant.remainingMs(), 0.0) << ms;
    }
}

TEST(Deadline, EnvStageTimeoutIsNonNegative)
{
    // Unset (the test environment) parses as "no deadline".
    EXPECT_GE(support::envStageTimeoutMs(), 0.0);
}

TEST(Deadline, ExpiredBehaviorBudgetDegradesPipeline)
{
    synth::SampleSpec spec;
    spec.profile = synth::tendaProfile();
    spec.profile.minCustomFns = 40;
    spec.profile.maxCustomFns = 60;
    spec.product = "AC6";
    spec.version = "V1";
    spec.name = "deadline-sample";
    spec.seed = 0xdead;
    const auto fw = synth::generateFirmware(spec);

    core::PipelineConfig config;
    config.budgets.behaviorMs = 1e-6; // expires immediately
    const core::FitsPipeline pipeline(config);
    const auto artifact = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(artifact.ok()) << artifact.status.toString();
    EXPECT_TRUE(artifact.degraded);
    bool sawTimeout = false;
    for (const auto &issue : artifact.issues) {
        if (issue.code() == support::ErrorCode::Timeout &&
            issue.stage() == support::Stage::Ucse)
            sawTimeout = true;
    }
    EXPECT_TRUE(sawTimeout);

    // Reaching definitions stop at the same deadline and still return
    // parameter masks sized [block][stmt].
    ASSERT_TRUE(artifact.hasAnalysis());
    std::size_t flowExpired = 0;
    for (const auto &fa : artifact.analysis->fns) {
        if (!fa.flow.deadlineExpired)
            continue;
        ++flowExpired;
        ASSERT_EQ(fa.flow.stmtDeps.size(), fa.fn->blocks.size());
        for (std::size_t b = 0; b < fa.fn->blocks.size(); ++b) {
            EXPECT_EQ(fa.flow.stmtDeps[b].size(),
                      fa.fn->blocks[b].stmts.size());
        }
    }
    EXPECT_GT(flowExpired, 0u);
}

TEST(Deadline, ExpiredTaintBudgetFlagsReports)
{
    synth::SampleSpec spec;
    spec.profile = synth::tendaProfile();
    spec.profile.minCustomFns = 40;
    spec.profile.maxCustomFns = 60;
    spec.product = "AC6";
    spec.version = "V1";
    spec.name = "taint-deadline-sample";
    spec.seed = 0x7a1;
    const auto fw = synth::generateFirmware(spec);

    const core::FitsPipeline pipeline;
    auto artifact = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(artifact.ok()) << artifact.status.toString();

    // Each run, directly under the budget, stops at its engine's own
    // deadline check and flags its report.
    for (const auto &run : eval::kTaintRuns) {
        EXPECT_TRUE(
            eval::runEngine(run, *artifact.analysis, {}, 1e-6).deadlineExpired)
            << run.key;
    }

    // The sample outcome keeps the scored runs and records one
    // Timeout per engine run cut short.
    const auto outcome = eval::sampleOutcome(
        std::move(artifact), fw.spec, fw.truth, /*taint=*/true, 1e-6);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.taint.has_value());
    EXPECT_TRUE(outcome.degraded);
    EXPECT_FALSE(outcome.issues.empty());
    for (const auto &issue : outcome.issues)
        EXPECT_EQ(issue.code(), support::ErrorCode::Timeout);
}

// ---- corrupted whole images --------------------------------------------

TEST(Corruption, TruncatedImagesFailTypedNeverCrash)
{
    const auto &bytes = sampleFw().bytes;
    const core::FitsPipeline pipeline;
    // Every short prefix plus a stride over the long tail: each must
    // come back as a typed unpack-stage failure, not a crash.
    for (std::size_t cut = 0; cut < bytes.size();
         cut += (cut < 512 ? 13 : 997)) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + cut);
        const auto artifact = pipeline.analyze(prefix);
        ASSERT_FALSE(artifact.ok()) << "prefix length " << cut;
        EXPECT_FALSE(artifact.status.isOk()) << cut;
        EXPECT_EQ(artifact.status.stage(), support::Stage::Unpack)
            << "prefix length " << cut << ": "
            << artifact.status.toString();
    }
}

TEST(Corruption, BitFlippedImagesFailCleanlyOrParse)
{
    const auto &bytes = sampleFw().bytes;
    const core::FitsPipeline pipeline;
    support::Rng rng(0xf11b);
    for (int round = 0; round < 100; ++round) {
        auto mutated = bytes;
        // Bias toward the structural front of the image (magic,
        // header, file table) where flips exercise parser edges.
        const std::size_t limit = round % 2 == 0
                                      ? std::min<std::size_t>(
                                            mutated.size(), 2048)
                                      : mutated.size();
        const std::size_t flips = 1 + rng.index(4);
        for (std::size_t i = 0; i < flips; ++i)
            mutated[rng.index(limit)] ^=
                static_cast<std::uint8_t>(1u << rng.index(8));
        const auto artifact = pipeline.analyze(mutated);
        if (!artifact.ok()) {
            EXPECT_FALSE(artifact.status.isOk()) << "round " << round;
            EXPECT_FALSE(artifact.status.message().empty()) << "round " << round;
        }
    }
    SUCCEED();
}

TEST(Corruption, HandMadeImagesFailTypedAtTheirStage)
{
    const core::FitsPipeline pipeline;
    // Control: the sample's own file table in a hand-made container
    // analyzes, so each row below fails for its defect alone.
    const auto control = pipeline.analyze(plainImage(fileTable(sampleFiles())));
    ASSERT_TRUE(control.ok()) << control.status.toString();

    const auto entry = [](std::uint32_t count, std::uint8_t type,
                          std::uint32_t size) {
        bin::ByteWriter w;
        w.u32(count);
        w.str("usr/sbin/httpd");
        w.u8(type);
        w.u32(size);
        return w;
    };
    const auto executable =
        static_cast<std::uint8_t>(fw::FileType::Executable);

    // The sample with its only executable cut to the front half of a
    // real FBIN: the loader rejects it, so selection finds nothing.
    std::vector<fw::FileEntry> files;
    const fw::FileEntry *main = nullptr;
    for (const auto &file : sampleFiles()) {
        if (file.type != fw::FileType::Executable)
            files.push_back(file);
        else if (main == nullptr)
            main = &file;
    }
    ASSERT_NE(main, nullptr);
    fw::FileEntry truncated = *main;
    truncated.bytes.resize(truncated.bytes.size() / 2);
    files.push_back(std::move(truncated));

    struct Row
    {
        const char *name;
        std::vector<std::uint8_t> payload;
        support::Stage stage;
        support::ErrorCode code;
        const char *message;
    };
    std::vector<Row> rows;
    rows.push_back({"truncated file count", {0x01, 0x00},
                    support::Stage::Filesystem,
                    support::ErrorCode::Truncated, "truncated file table"});
    {
        auto w = entry(1, executable, 1000);
        w.raw(std::vector<std::uint8_t>(10, 0xaa));
        rows.push_back({"entry size past the end", w.take(),
                        support::Stage::Filesystem,
                        support::ErrorCode::Truncated,
                        "malformed file entry"});
    }
    {
        auto w = entry(1, 0xee, 0);
        rows.push_back({"unknown file type", w.take(),
                        support::Stage::Filesystem,
                        support::ErrorCode::Corrupt, "unknown file type"});
    }
    {
        auto w = entry(3, executable, 0);
        rows.push_back({"file count past the last entry", w.take(),
                        support::Stage::Filesystem,
                        support::ErrorCode::Truncated,
                        "malformed file entry"});
    }
    rows.push_back({"only executable is a truncated FBIN",
                    fileTable(files), support::Stage::Select,
                    support::ErrorCode::NotFound, "parses as FBIN"});

    for (const auto &row : rows) {
        const auto artifact = pipeline.analyze(plainImage(row.payload));
        EXPECT_FALSE(artifact.ok()) << row.name;
        EXPECT_EQ(artifact.status.stage(), row.stage) << row.name;
        EXPECT_EQ(artifact.status.code(), row.code) << row.name;
        EXPECT_NE(artifact.status.message().find(row.message), std::string::npos)
            << row.name << ": " << artifact.status.toString();
    }
}

TEST(Corruption, BlockAddressesMustStrictlyIncrease)
{
    // A three-block function whose third block repeats or undercuts an
    // earlier block's address: the loader rejects the body, since the
    // analyses could not map that address to one block.
    const auto fbin = [](ir::Addr third) {
        bin::BinaryImage image;
        image.name = "httpd";
        ir::Function fn;
        fn.entry = 0x1000;
        for (const ir::Addr addr :
             {ir::Addr{0x1000}, ir::Addr{0x1010}, third}) {
            ir::BasicBlock block;
            block.addr = addr;
            block.stmts.push_back(ir::Stmt::ret());
            fn.blocks.push_back(std::move(block));
        }
        image.program.addFunction(std::move(fn));
        return bin::writeBinary(image);
    };

    const auto control = bin::loadBinary(fbin(0x1020));
    ASSERT_TRUE(control.hasValue()) << control.status().toString();
    EXPECT_EQ(control.value().program.functions()[0].blockIndexAt(0x1020),
              2u);

    for (const ir::Addr third : {ir::Addr{0x1010}, ir::Addr{0x1000}}) {
        const auto loaded = bin::loadBinary(fbin(third));
        ASSERT_FALSE(loaded.hasValue()) << std::hex << third;
        EXPECT_EQ(loaded.status().code(), support::ErrorCode::Corrupt);
        EXPECT_NE(loaded.status().message().find(
                      "block addresses not increasing"),
                  std::string::npos)
            << loaded.status().toString();
    }
}

TEST(Corruption, MutatedPayloadsBehindValidChecksumFailTypedOrParse)
{
    // Byte flips inside the checksummed payload reach the file-table
    // parser, the FBIN loader and everything after them.
    const auto table = fileTable(sampleFiles());
    const core::FitsPipeline pipeline;
    support::Rng rng(0x5eed);
    for (int round = 0; round < 60; ++round) {
        auto mutated = table;
        // Half the rounds aim at the front: the file table and the
        // first FBIN header.
        const std::size_t limit =
            round % 2 == 0 ? std::min<std::size_t>(mutated.size(), 4096)
                           : mutated.size();
        const std::size_t flips = 1 + rng.index(4);
        for (std::size_t i = 0; i < flips; ++i)
            mutated[rng.index(limit)] ^=
                static_cast<std::uint8_t>(1u << rng.index(8));
        const auto artifact = pipeline.analyze(plainImage(mutated));
        if (artifact.ok())
            continue;
        EXPECT_FALSE(artifact.status.isOk()) << "round " << round;
        EXPECT_FALSE(artifact.status.message().empty()) << "round " << round;
        EXPECT_NE(artifact.status.code(), support::ErrorCode::Internal)
            << "round " << round << ": " << artifact.status.toString();
    }
}

TEST(Corruption, BitFlippedBehaviorBundlesDecodeCleanlyOrRank)
{
    // The behavior-cache codec behind a valid checksum: a cache entry
    // whose checksum matches can still carry flipped bits. Each
    // mutation must be rejected, or decode to a bundle that inference
    // ranks without crashing.
    const auto artifact = core::FitsPipeline().analyze(sampleFw().bytes);
    ASSERT_TRUE(artifact.ok()) << artifact.status.toString();
    core::BehaviorBundle bundle;
    bundle.imageInfo = artifact.imageInfo;
    bundle.binaryName = artifact.binaryName;
    bundle.numFunctions = artifact.numFunctions;
    bundle.binaryBytes = artifact.binaryBytes;
    bundle.behavior = artifact.behavior;
    const std::string payload = core::encodeBehaviorBundle(bundle);

    support::Rng rng(0xb1b);
    int decoded = 0;
    for (int round = 0; round < 400; ++round) {
        std::string mutated = payload;
        // Half the rounds aim at the tail, where the custom and anchor
        // id lists sit.
        const std::size_t tail =
            std::min<std::size_t>(mutated.size(), 1024);
        const std::size_t flips = 1 + rng.index(4);
        for (std::size_t i = 0; i < flips; ++i) {
            const std::size_t at =
                round % 2 == 0 ? mutated.size() - 1 - rng.index(tail)
                               : rng.index(mutated.size());
            mutated[at] = static_cast<char>(
                mutated[at] ^ static_cast<char>(1u << rng.index(8)));
        }
        const auto decodedBundle = core::decodeBehaviorBundle(mutated);
        if (!decodedBundle)
            continue;
        ++decoded;
        const auto &behavior = decodedBundle->behavior;
        const auto result = core::inferIts(behavior, core::InferConfig{});
        EXPECT_LE(result.ranking.size(), behavior.customFns.size())
            << "round " << round;
    }
    EXPECT_GT(decoded, 0);
}

// ---- missing libraries -------------------------------------------------

TEST(Robustness, MissingLibrariesDegradeNotFail)
{
    // The sample repacked without its library files. The pipeline
    // keeps going on the main binary: either a degraded success or a
    // typed inference failure (no anchors without libraries), never a
    // crash and never an untyped error.
    auto unpacked = fw::unpackFirmware(sampleFw().bytes);
    ASSERT_TRUE(unpacked) << unpacked.errorMessage();
    fw::FirmwareImage stripped;
    stripped.info = unpacked.value().info;
    std::size_t dropped = 0;
    for (const auto &file : unpacked.value().filesystem.files()) {
        if (file.type == fw::FileType::Library)
            ++dropped;
        else
            stripped.filesystem.addFile(file);
    }
    ASSERT_GT(dropped, 0u);

    const core::FitsPipeline pipeline;
    const auto artifact = pipeline.analyze(fw::packFirmware(stripped));
    if (artifact.ok()) {
        EXPECT_TRUE(artifact.degraded);
        bool sawMissingLibrary = false;
        for (const auto &issue : artifact.issues) {
            if (issue.stage() == support::Stage::Select &&
                issue.code() == support::ErrorCode::NotFound)
                sawMissingLibrary = true;
        }
        EXPECT_TRUE(sawMissingLibrary);
    } else {
        EXPECT_EQ(artifact.status.stage(), support::Stage::Infer)
            << artifact.status.toString();
    }
}

} // namespace
} // namespace fits
