/** @file A seeded generator of random FIR functions, shared by the
 * oracle tests that compare an analysis kernel with its reference
 * implementation. */

#ifndef FITS_TESTS_RANDOM_FUNCTION_HH_
#define FITS_TESTS_RANDOM_FUNCTION_HH_

#include <vector>

#include "ir/builder.hh"
#include "support/rng.hh"

namespace fits::test_support {

/**
 * A random function that validateFunction accepts: up to eight blocks
 * wired by random side exits, jumps and fallthroughs, so loops, joins
 * and blocks unreachable from the entry all occur. Statements mix
 * register reads and writes, constant- and unknown-address loads and
 * stores, and direct and indirect calls.
 */
inline ir::Function
randomFunction(support::Rng &rng)
{
    ir::FunctionBuilder b;
    const std::size_t nBlocks = 1 + rng.index(8);
    for (std::size_t i = 1; i < nBlocks; ++i)
        b.newBlock();
    const std::vector<std::uint64_t> cells = {0x500000, 0x500010,
                                              0x500020};
    std::vector<ir::TmpId> tmps;
    auto reg = [&] { return static_cast<ir::RegId>(rng.index(6)); };
    auto value = [&] {
        if (tmps.empty() || rng.chance(0.2))
            return ir::Operand::ofImm(rng.index(4));
        return ir::Operand::ofTmp(rng.pick(tmps));
    };
    // Immediate cell addresses and constant temporaries are constant
    // addresses; other temporaries are unknown ones.
    auto addr = [&] {
        if (tmps.empty() || rng.chance(0.5))
            return ir::Operand::ofImm(rng.pick(cells));
        return ir::Operand::ofTmp(rng.pick(tmps));
    };

    for (std::size_t blk = 0; blk < nBlocks; ++blk) {
        b.switchTo(blk);
        const std::size_t count = rng.index(10);
        for (std::size_t k = 0; k < count; ++k) {
            switch (rng.index(10)) {
              case 0:
              case 1:
                tmps.push_back(b.get(reg()));
                break;
              case 2:
                b.put(reg(), value());
                break;
              case 3:
                tmps.push_back(b.cnst(rng.chance(0.5) ? rng.pick(cells)
                                                      : rng.index(4)));
                break;
              case 4:
                tmps.push_back(b.binop(ir::BinOp::Add, value(), value()));
                break;
              case 5:
                tmps.push_back(b.load(addr()));
                break;
              case 6:
                b.store(addr(), value());
                break;
              case 7:
                b.call(0x8000);
                break;
              case 8:
                b.callIndirect(value());
                break;
              case 9:
                b.branch(value(), rng.index(nBlocks));
                break;
            }
        }
        switch (rng.index(5)) {
          case 0:
            b.ret();
            break;
          case 1:
          case 2:
            b.jump(rng.index(nBlocks));
            break;
          case 3:
            b.jumpIndirect(value());
            break;
          default:
            break; // fall through to the next block
        }
    }
    return b.build(0x1000);
}

} // namespace fits::test_support

#endif // FITS_TESTS_RANDOM_FUNCTION_HH_
