/** @file Allocation budget of the whole-program analysis: counts the
 * heap allocations ProgramAnalysis::analyze makes on the first sample
 * of the standard corpus, prints them per function, and fails when
 * they exceed kBudgetPerFunction. The per-function products are flat
 * arrays and the kernels' working buffers are per-thread, so an
 * analysis allocates little more than its results. Its own executable,
 * because it replaces the global operator new. */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "analysis/program_analysis.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "synth/firmware_gen.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

void *
allocate(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

/** At most this many allocations per analyzed function. */
constexpr double kBudgetPerFunction = 12.0;

} // namespace

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

int
main()
{
    using namespace fits;
    const auto fw = synth::generateFirmware(synth::standardDataset()[0]);
    auto unpacked = fw::unpackFirmware(fw.bytes);
    if (!unpacked) {
        std::fprintf(stderr, "alloc_budget: sample does not unpack\n");
        return 1;
    }
    auto target = fw::selectAnalysisTarget(unpacked.value().filesystem);
    if (!target) {
        std::fprintf(stderr, "alloc_budget: sample selects no binary\n");
        return 1;
    }
    const analysis::LinkedProgram linked(*target.value().main,
                                         target.value().libraries);

    counting = true;
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    counting = false;

    const std::size_t functions = pa.fns.size();
    const double perFunction =
        static_cast<double>(allocations.load()) /
        static_cast<double>(functions == 0 ? 1 : functions);
    std::printf("ProgramAnalysis::analyze: %zu allocations for %zu "
                "functions, %.1f per function (budget %.1f)\n",
                allocations.load(), functions, perFunction,
                kBudgetPerFunction);
    return functions > 0 && perFunction <= kBudgetPerFunction ? 0 : 1;
}
