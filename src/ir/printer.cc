#include "printer.hh"

#include "support/strings.hh"

namespace fits::ir {

std::string
printFunction(const Function &fn)
{
    using support::format;
    using support::hex;
    std::string out = format("function %s @ %s (%zu blocks, %u tmps)\n",
                             fn.name.empty() ? "<stripped>"
                                             : fn.name.c_str(),
                             hex(fn.entry).c_str(), fn.blocks.size(),
                             fn.numTmps);
    for (const auto &block : fn.blocks) {
        out += format("  block %s:\n", hex(block.addr).c_str());
        for (std::size_t i = 0; i < block.stmts.size(); ++i) {
            out += format("    %s: %s\n",
                          hex(block.stmtAddr(i)).c_str(),
                          block.stmts[i].toString().c_str());
        }
    }
    return out;
}

} // namespace fits::ir
