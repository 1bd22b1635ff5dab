/**
 * @file
 * `fits` — command-line driver over the library, for working with
 * firmware images on disk:
 *
 *   fits gen <out.fwimg> [--vendor V] [--seed N] [--keep-symbols]
 *       Generate a synthetic firmware sample (plus a ground-truth
 *       sidecar <out.fwimg.truth> for scoring).
 *   fits info <image.fwimg>
 *       Unpack and describe: file system, selected network binary,
 *       imports, anchors.
 *   fits rank <image.fwimg> [--top N] [--use-symbols]
 *       Run the FITS pipeline and print the ITS ranking.
 *   fits taint <image.fwimg> [--engine sta|karonte] [--its ADDR]...
 *       Run a taint engine with the classical sources plus any given
 *       intermediate sources and print the alerts.
 *   fits disasm <image.fwimg> <function-addr>
 *       Print the FIR of the network-binary function at (or containing)
 *       the address.
 *   fits score <image.fwimg>
 *       Rank, then run STA with the top-3 ranked functions the
 *       <image.fwimg>.truth sidecar confirms as ITSs, and score the
 *       ranking and the alerts against that sidecar.
 *   fits corpus [--jobs N] [--taint] [--dir DIR]
 *               [--metrics-out FILE] [--no-cache]
 *       Evaluate the standard 59-sample corpus in parallel (per-vendor
 *       precision; with --taint also the four engine configurations,
 *       from one shared analysis pass per sample). --dir evaluates
 *       every *.fwimg under DIR instead of the synthetic corpus, each
 *       file read by the worker that analyzes it (an unreadable file
 *       is a failed sample); --metrics-out enables the fits::obs
 *       registry and writes its JSON snapshot after the run;
 *       --no-cache disables the analysis cache (results are
 *       identical either way — set FITS_CACHE_DIR to persist the cache
 *       across invocations). Exits non-zero when every sample fails.
 *
 * A numeric argument (--seed, --top, --its, --jobs) that is not a
 * whole unsigned number — decimal, 0x-hex or 0-octal — is a usage
 * error (exit 2).
 */

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "core/anchors.hh"
#include "core/pipeline.hh"
#include "eval/harness.hh"
#include "eval/report.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "ir/printer.hh"
#include "obs/metrics.hh"
#include "support/file.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "taint/sta.hh"

namespace {

using namespace fits;

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  fits gen <out.fwimg> [--vendor NETGEAR|D-Link|TP-Link|"
        "Tenda|Cisco]\n"
        "           [--seed N] [--keep-symbols]\n"
        "  fits info <image.fwimg>\n"
        "  fits rank <image.fwimg> [--top N] [--use-symbols]\n"
        "  fits taint <image.fwimg> [--engine sta|karonte] "
        "[--its ADDR]...\n"
        "  fits disasm <image.fwimg> <function-addr>\n"
        "  fits score <image.fwimg>   (needs <image>.truth sidecar)\n"
        "  fits corpus [--jobs N] [--taint] [--dir DIR] "
        "[--metrics-out FILE] [--no-cache]\n"
        "              (FITS_JOBS also sets N; FITS_CACHE_DIR "
        "persists the analysis cache;\n"
        "              exits 1 when every sample fails)\n"
        "env: FITS_STAGE_TIMEOUT_MS bounds each cooperative pipeline "
        "stage\n");
    return 2;
}

/** Parse a whole argument as an unsigned number (strtoull base 0).
 * False for empty text, a sign, trailing characters, or overflow. */
bool
parseNumber(const char *text, std::uint64_t &value)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    value = std::strtoull(text, &end, 0);
    return *end == '\0' && errno == 0;
}

/** Read an image argument, or print WHY it cannot be read (missing,
 * a directory, unreadable) to stderr and return false. */
bool
readImageArg(const std::string &path, std::vector<std::uint8_t> &bytes)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::file_status st = fs::status(path, ec);
    if (ec || st.type() == fs::file_type::not_found) {
        std::fprintf(stderr, "cannot read %s: no such file\n",
                     path.c_str());
        return false;
    }
    if (st.type() == fs::file_type::directory) {
        std::fprintf(stderr,
                     "cannot read %s: is a directory "
                     "(expected a .fwimg file)\n",
                     path.c_str());
        return false;
    }
    auto read = support::readFile(path);
    if (!read) {
        std::fprintf(stderr, "cannot read %s: open failed "
                             "(permissions?)\n",
                     path.c_str());
        return false;
    }
    bytes = std::move(*read);
    return true;
}

bool
writeFile(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

/** The profile of one of the five evaluated vendors, or nullopt for
 * any other name. */
std::optional<synth::VendorProfile>
profileByName(const std::string &vendor)
{
    for (const auto &profile : synth::vendorProfiles()) {
        if (profile.vendor == vendor)
            return profile;
    }
    return std::nullopt;
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    const std::string out = argv[0];
    std::string vendor = "NETGEAR";
    std::uint64_t seed = 1;
    bool keepSymbols = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--vendor" && i + 1 < argc) {
            vendor = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            if (!parseNumber(argv[++i], seed))
                return usage();
        } else if (arg == "--keep-symbols") {
            keepSymbols = true;
        } else {
            return usage();
        }
    }

    auto profile = profileByName(vendor);
    if (!profile)
        return usage();

    synth::SampleSpec spec;
    spec.profile = std::move(*profile);
    spec.product = spec.profile.series.front();
    spec.version = support::format("V1.0.%llu",
                                   static_cast<unsigned long long>(
                                       seed % 100));
    spec.name = spec.product + "-" + spec.version;
    spec.seed = seed;
    spec.keepSymbols = keepSymbols;

    const auto firmware = synth::generateFirmware(spec);
    if (!writeFile(out, firmware.bytes)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }

    // Ground-truth sidecar for scoring tools.
    std::ofstream truth(out + ".truth");
    truth << "# ground truth for " << spec.name << "\n";
    for (ir::Addr its : firmware.truth.itsFunctions)
        truth << "its " << support::hex(its) << "\n";
    for (const auto &site : firmware.truth.sinkSites) {
        truth << "sink " << support::hex(site.addr) << " "
              << synth::siteClassName(site.cls) << " "
              << synth::flowKindName(site.flow) << " "
              << site.sinkName << "\n";
    }
    truth.close();
    if (!truth) {
        std::fprintf(stderr, "cannot write %s.truth\n", out.c_str());
        return 1;
    }

    std::printf("wrote %s (%zu bytes, %s %s, %zu planted bugs) and "
                "%s.truth\n",
                out.c_str(), firmware.bytes.size(), vendor.c_str(),
                spec.name.c_str(), firmware.truth.bugCount(),
                out.c_str());
    return 0;
}

int
cmdInfo(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    if (!readImageArg(path, bytes))
        return 1;
    auto unpacked = fw::unpackFirmware(bytes);
    if (!unpacked) {
        std::fprintf(stderr, "unpack failed: %s\n",
                     unpacked.errorMessage().c_str());
        return 1;
    }
    const auto &image = unpacked.value();
    std::printf("vendor:  %s\nproduct: %s %s\nencoding: %s\n",
                image.info.vendor.c_str(),
                image.info.product.c_str(),
                image.info.version.c_str(),
                fw::encodingName(image.info.encoding));
    std::printf("file system (%zu files, %zu bytes):\n",
                image.filesystem.size(),
                image.filesystem.totalBytes());
    for (const auto &file : image.filesystem.files()) {
        std::printf("  %-24s %-10s %7zu bytes\n", file.path.c_str(),
                    fw::fileTypeName(file.type), file.bytes.size());
    }

    auto target = fw::selectAnalysisTarget(image.filesystem);
    if (!target) {
        std::printf("no analyzable network binary: %s\n",
                    target.errorMessage().c_str());
        return 0;
    }
    const auto &main = *target.value().main;
    std::printf("\nnetwork binary: %s (%s, %zu functions, "
                "stripped: %s)\n",
                main.name.c_str(), bin::archName(main.arch),
                main.program.size(), main.stripped ? "yes" : "no");
    std::printf("imports (%zu):", main.imports.size());
    for (const auto &imp : main.imports) {
        std::printf(" %s%s", imp.name.c_str(),
                    core::isAnchorName(imp.name) ? "*" : "");
    }
    std::printf("   (* = anchor)\n");
    return 0;
}

int
cmdRank(const std::string &path, int argc, char **argv)
{
    std::uint64_t top = 10;
    bool useSymbols = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--top" && i + 1 < argc) {
            if (!parseNumber(argv[++i], top))
                return usage();
        } else if (arg == "--use-symbols") {
            useSymbols = true;
        } else {
            return usage();
        }
    }

    std::vector<std::uint8_t> bytes;
    if (!readImageArg(path, bytes))
        return 1;
    const auto report = eval::runRankReport(bytes, top, useSymbols);
    if (!report.ok) {
        std::fputs(report.error.c_str(), stderr);
        return 1;
    }
    std::fputs(report.text.c_str(), stdout);
    return 0;
}

int
cmdTaint(const std::string &path, int argc, char **argv)
{
    std::string engine = "sta";
    std::vector<ir::Addr> itsAddrs;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--engine" && i + 1 < argc) {
            engine = argv[++i];
        } else if (arg == "--its" && i + 1 < argc) {
            std::uint64_t addr = 0;
            if (!parseNumber(argv[++i], addr))
                return usage();
            itsAddrs.push_back(addr);
        } else {
            return usage();
        }
    }
    if (engine != "sta" && engine != "karonte")
        return usage();

    std::vector<std::uint8_t> bytes;
    if (!readImageArg(path, bytes))
        return 1;
    const auto report = eval::runTaintReport(bytes, engine, itsAddrs);
    if (!report.ok) {
        std::fputs(report.error.c_str(), stderr);
        return 1;
    }
    std::fputs(report.text.c_str(), stdout);
    return 0;
}

int
cmdScore(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    if (!readImageArg(path, bytes))
        return 1;
    // Parse the ground-truth sidecar.
    std::ifstream truthIn(path + ".truth");
    if (!truthIn) {
        std::fprintf(stderr, "cannot read %s.truth\n", path.c_str());
        return 1;
    }
    synth::GroundTruth truth;
    std::vector<std::pair<ir::Addr, bool>> sites; // (addr, isBug)
    std::string line;
    while (std::getline(truthIn, line)) {
        const auto fields = support::split(line, ' ');
        if (fields.size() >= 2 && fields[0] == "its") {
            truth.itsFunctions.push_back(
                std::strtoull(fields[1].c_str(), nullptr, 0));
        } else if (fields.size() >= 3 && fields[0] == "sink") {
            sites.emplace_back(
                std::strtoull(fields[1].c_str(), nullptr, 0),
                fields[2] == "real-bug");
        }
    }

    const core::FitsPipeline pipeline;
    const auto artifact = pipeline.analyze(bytes);
    if (!artifact.ok()) {
        std::fprintf(stderr, "pipeline failed: %s\n",
                     artifact.status.message().c_str());
        return 1;
    }

    const auto &ranking = artifact.inference.ranking;
    const int rank = eval::rankOfFirstIts(ranking, truth);
    std::printf("ITS rank: %d (top-3 %s)\n", rank,
                rank >= 1 && rank <= 3 ? "hit" : "miss");

    // Taint with the verified top-3 ITSs over the analysis the ranking
    // came from; score against the sidecar.
    auto sources = taint::classicalTaintSources();
    const auto its = eval::verifiedItsSources(ranking, truth);
    sources.insert(sources.end(), its.begin(), its.end());
    const auto report = taint::StaEngine().run(*artifact.analysis, sources);
    const auto alerts = report.filteredAlerts();
    std::size_t tp = 0, fp = 0;
    for (const auto &alert : alerts) {
        bool bug = false;
        for (const auto &[addr, isBug] : sites) {
            if (addr == alert.sinkSite && isBug)
                bug = true;
        }
        bug ? ++tp : ++fp;
    }
    std::size_t plantedBugs = 0;
    for (const auto &[addr, isBug] : sites)
        plantedBugs += isBug ? 1 : 0;
    std::printf("STA-ITS: %zu alerts, %zu true positives, %zu false "
                "positives\n",
                alerts.size(), tp, fp);
    std::printf("planted bugs: %zu, recall %.0f%%\n", plantedBugs,
                plantedBugs == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(tp) /
                          static_cast<double>(plantedBugs));
    return 0;
}

int
cmdDisasm(const std::string &path, const std::string &addrText)
{
    std::vector<std::uint8_t> bytes;
    if (!readImageArg(path, bytes))
        return 1;
    auto unpacked = fw::unpackFirmware(bytes);
    if (!unpacked) {
        std::fprintf(stderr, "unpack failed: %s\n",
                     unpacked.errorMessage().c_str());
        return 1;
    }
    auto target = fw::selectAnalysisTarget(unpacked.value().filesystem);
    if (!target) {
        std::fprintf(stderr, "selection failed: %s\n",
                     target.errorMessage().c_str());
        return 1;
    }
    const ir::Addr addr = std::strtoull(addrText.c_str(), nullptr, 0);
    const ir::Function *fn =
        target.value().main->program.functionAt(addr);
    if (fn == nullptr)
        fn = target.value().main->program.functionContaining(addr);
    if (fn == nullptr) {
        std::fprintf(stderr, "no function at %s\n",
                     support::hex(addr).c_str());
        return 1;
    }
    std::fputs(ir::printFunction(*fn).c_str(), stdout);
    return 0;
}

int
cmdCorpus(int argc, char **argv)
{
    eval::CorpusOptions options;
    std::string metricsOut;
    bool noCache = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            std::uint64_t jobs = 0;
            if (!parseNumber(argv[++i], jobs))
                return usage();
            options.jobs = jobs;
        } else if (arg == "--taint") {
            options.taint = true;
        } else if (arg == "--no-cache") {
            noCache = true;
        } else if (arg == "--dir" && i + 1 < argc) {
            options.dir = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metricsOut = argv[++i];
        } else {
            return usage();
        }
    }

    if (!metricsOut.empty())
        obs::setEnabled(true);
    if (noCache) {
        // Turn off both tiers: the in-process one as well as a disk
        // tier that FITS_CACHE_DIR armed at startup.
        cache::Options off;
        off.memory = false;
        off.disk = false;
        cache::configure(off);
    }
    cache::resetStats();

    // Print the header eagerly (before the long evaluation) so the
    // one-shot tool still shows progress.
    options.onHeader = [](const std::string &header) {
        std::fputs(header.c_str(), stdout);
        std::fflush(stdout);
    };
    const eval::CorpusReport report = eval::runCorpusReport(options);
    if (!report.ok) {
        std::fputs(report.error.c_str(), stderr);
        return 1;
    }
    std::fputs(report.diagnostics.c_str(), stderr);
    std::fputs(report.text.c_str(), stdout);
    std::fputs(
        eval::renderWallClock(report.wallMs, report.jobs).c_str(),
        stdout);
    std::fputs(eval::renderCacheSummary().c_str(), stdout);

    if (!metricsOut.empty()) {
        if (obs::Registry::instance().exportToFile(metricsOut)) {
            std::printf("metrics written to %s\n", metricsOut.c_str());
        } else {
            std::fprintf(stderr, "cannot write metrics to %s\n",
                         metricsOut.c_str());
            return 1;
        }
    }

    return report.exitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "corpus")
        return cmdCorpus(argc - 2, argv + 2);
    if (argc < 3)
        return usage();
    if (command == "gen")
        return cmdGen(argc - 2, argv + 2);
    if (command == "info")
        return cmdInfo(argv[2]);
    if (command == "rank")
        return cmdRank(argv[2], argc - 3, argv + 3);
    if (command == "taint")
        return cmdTaint(argv[2], argc - 3, argv + 3);
    if (command == "disasm" && argc >= 4)
        return cmdDisasm(argv[2], argv[3]);
    if (command == "score")
        return cmdScore(argv[2]);
    return usage();
}
