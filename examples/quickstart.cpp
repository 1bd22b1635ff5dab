/**
 * @file
 * Quickstart: generate one synthetic firmware image, run the full FITS
 * pipeline on it (unpack -> select network binary -> behavior
 * representation -> ITS ranking), and print the top candidates next to
 * the ground truth.
 */

#include <cstdio>

#include <algorithm>

#include "core/pipeline.hh"
#include "eval/harness.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"

int
main()
{
    using namespace fits;
    support::Logger::instance().setLevel(support::LogLevel::Info);

    // 1. Build a firmware image the way a vendor would ship it: a
    //    packed FWIMG containing the web server, libc, and assets.
    synth::SampleSpec spec;
    spec.profile = synth::netgearProfile();
    spec.product = "R7000P";
    spec.version = "V1.3.0.8";
    spec.name = spec.product + "-" + spec.version;
    spec.seed = 0x52700042;
    const synth::GeneratedFirmware firmware =
        synth::generateFirmware(spec);
    std::printf("firmware: %s %s (%zu bytes packed)\n",
                spec.profile.vendor.c_str(), spec.name.c_str(),
                firmware.bytes.size());

    // 2. Run FITS end to end on the raw image bytes.
    const core::FitsPipeline pipeline;
    const core::PipelineArtifact artifact =
        pipeline.analyze(firmware.bytes);
    if (!artifact.ok()) {
        std::printf("pipeline failed: %s\n",
                    artifact.status.message().c_str());
        return 1;
    }

    std::printf("network binary: %s (%zu functions, %zu bytes)\n",
                artifact.binaryName.c_str(), artifact.numFunctions,
                artifact.binaryBytes);
    std::printf("analysis time: %.1f ms\n", artifact.analysisMs);
    std::printf("custom functions: %zu, anchors: %zu, "
                "candidates after clustering: %zu\n",
                artifact.inference.numCustom,
                artifact.inference.numAnchors,
                artifact.inference.numCandidates);

    // 3. Show the ranking against ground truth.
    std::printf("\ntop ITS candidates:\n");
    const std::size_t shown =
        std::min<std::size_t>(5, artifact.inference.ranking.size());
    for (std::size_t i = 0; i < shown; ++i) {
        const auto &rf = artifact.inference.ranking[i];
        const bool isIts =
            std::find(firmware.truth.itsFunctions.begin(),
                      firmware.truth.itsFunctions.end(),
                      rf.entry) != firmware.truth.itsFunctions.end();
        std::printf("  #%zu %-10s score %.4f %s\n", i + 1,
                    support::hex(rf.entry).c_str(), rf.score,
                    isIts ? "<-- true ITS" : "");
    }

    const int rank = eval::rankOfFirstIts(artifact.inference.ranking,
                                          firmware.truth);
    std::printf("\nfirst true ITS at rank %d (ground truth: %s)\n",
                rank,
                firmware.truth.itsFunctions.empty()
                    ? "none"
                    : support::hex(firmware.truth.itsFunctions[0])
                          .c_str());
    return 0;
}
