#ifndef FITS_ANALYSIS_LINKED_HH_
#define FITS_ANALYSIS_LINKED_HH_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "binary/image.hh"

namespace fits::analysis {

/** Dense id of a function within a LinkedProgram. */
using FnId = std::uint32_t;

/** A function together with the image that contains it. */
struct FnRef
{
    const bin::BinaryImage *image = nullptr;
    const ir::Function *fn = nullptr;
};

/**
 * A pseudo-linked view over the network binary and its dependency
 * libraries, mirroring Algorithm 1's "UCSE-based analysis on Bin, Libs".
 *
 * Each image keeps its own address space; cross-image references only
 * happen through the dynamic import table (PLT stub -> symbol name ->
 * exporting library), exactly as the dynamic linker would bind them.
 * The class provides dense function ids across all images and resolves
 * call targets to functions or external imports.
 */
class LinkedProgram
{
  public:
    LinkedProgram(const bin::BinaryImage &main,
                  const std::vector<bin::BinaryImage> &libraries);

    /** Same view over shared library instances. The caller keeps
     * the shared_ptrs alive for the program's lifetime (the view stores
     * raw pointers either way). */
    LinkedProgram(
        const bin::BinaryImage &main,
        const std::vector<std::shared_ptr<const bin::BinaryImage>>
            &libraries);

    std::size_t fnCount() const { return fns_.size(); }
    const FnRef &fn(FnId id) const { return fns_[id]; }

    /** True if the function lives in the main (network) binary. */
    bool isMainFn(FnId id) const { return fns_[id].image == main_; }

    const bin::BinaryImage &mainImage() const { return *main_; }

    /** Id of the function at `entry` inside `image`, if any. */
    std::optional<FnId> fnIdOf(const bin::BinaryImage *image,
                               ir::Addr entry) const;

    /** Resolution result for a direct (or UCSE-resolved) call target. */
    struct CallTarget
    {
        enum class Kind : std::uint8_t {
            Function,       ///< resolves to a function we have IR for
            ExternalImport, ///< an import with no implementation loaded
            Unknown,        ///< not a function entry or PLT stub
        };

        Kind kind = Kind::Unknown;
        FnId fn = 0;
        /** Symbol name when known: the import name, or the callee's own
         * (unstripped) name. Empty for stripped local callees. */
        std::string name;
        std::string library;
    };

    /**
     * Resolve a call-target address evaluated inside `image`: local
     * function entry, PLT stub (bound by name against library exports),
     * or unknown.
     */
    CallTarget resolve(const bin::BinaryImage *image,
                       ir::Addr target) const;

  private:
    void link();

    const bin::BinaryImage *main_;
    std::vector<const bin::BinaryImage *> images_;
    std::vector<FnRef> fns_;
    /** (image, entry) -> FnId. */
    std::unordered_map<const bin::BinaryImage *,
                       std::unordered_map<ir::Addr, FnId>>
        byEntry_;
    /** Exported symbol name -> FnId (library functions keep names). */
    std::unordered_map<std::string, FnId> exports_;
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_LINKED_HH_
