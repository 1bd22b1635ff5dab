#ifndef FITS_ANALYSIS_CONSTMAP_HH_
#define FITS_ANALYSIS_CONSTMAP_HH_

#include <optional>
#include <vector>

#include "binary/image.hh"
#include "ir/function.hh"

namespace fits::analysis {

/**
 * Flow-insensitive constant values of temporaries in a function.
 *
 * A temporary maps to a constant iff every definition of it evaluates to
 * that same constant using only Const statements, foldable Binops, and
 * Loads from constant addresses in read-only sections (whose initialized
 * bytes cannot change at runtime). Builder- and lifter-produced code
 * assigns each temporary once, so in practice this recovers all
 * address-formation arithmetic, which is what the Table-2 backtracker
 * and the taint engines need.
 */
class TmpConstMap
{
  public:
    /** image may be null; Loads are then never folded. */
    static TmpConstMap compute(const ir::Function &fn,
                               const bin::BinaryImage *image);

    /** Constant value of tmp t, if known. */
    std::optional<std::uint64_t> valueOf(ir::TmpId t) const;

    /** Constant value of an operand (immediates are constants). */
    std::optional<std::uint64_t> valueOf(const ir::Operand &op) const;

    std::size_t knownCount() const { return known_; }

  private:
    /** One slot per temporary: how many statements define it (capped
     * at 2, which means "never constant") and its folded value. */
    struct Slot
    {
        std::uint64_t value = 0;
        std::uint8_t defs = 0;
        bool folded = false;
    };

    std::vector<Slot> slots_;
    std::size_t known_ = 0;
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_CONSTMAP_HH_
