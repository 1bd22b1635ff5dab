#include "fbin.hh"

#include "binary/bytebuf.hh"
#include "support/status.hh"
#include "support/strings.hh"

namespace fits::bin {

namespace {

using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

void
writeOperand(ByteWriter &w, const Operand &op)
{
    w.u8(static_cast<std::uint8_t>(op.kind));
    if (op.isTmp())
        w.u32(op.tmp);
    else
        w.u64(op.imm);
}

bool
readOperand(ByteReader &r, Operand &op)
{
    std::uint8_t kind;
    if (!r.u8(kind) || kind > 1)
        return false;
    if (kind == static_cast<std::uint8_t>(Operand::Kind::Tmp)) {
        std::uint32_t tmp;
        if (!r.u32(tmp))
            return false;
        op = Operand::ofTmp(tmp);
    } else {
        std::uint64_t imm;
        if (!r.u64(imm))
            return false;
        op = Operand::ofImm(imm);
    }
    return true;
}

void
writeStmt(ByteWriter &w, const Stmt &s)
{
    w.u8(static_cast<std::uint8_t>(s.kind));
    switch (s.kind) {
      case StmtKind::Get:
        w.u32(s.dst);
        w.u16(s.reg);
        break;
      case StmtKind::Put:
        w.u16(s.reg);
        writeOperand(w, s.a);
        break;
      case StmtKind::Const:
        w.u32(s.dst);
        w.u64(s.a.imm);
        break;
      case StmtKind::Binop:
        w.u32(s.dst);
        w.u8(static_cast<std::uint8_t>(s.op));
        writeOperand(w, s.a);
        writeOperand(w, s.b);
        break;
      case StmtKind::Load:
        w.u32(s.dst);
        writeOperand(w, s.a);
        break;
      case StmtKind::Store:
        writeOperand(w, s.a);
        writeOperand(w, s.b);
        break;
      case StmtKind::Call:
        w.u8(s.indirect ? 1 : 0);
        if (s.indirect)
            writeOperand(w, s.a);
        else
            w.u64(s.target);
        break;
      case StmtKind::Branch:
        writeOperand(w, s.a);
        w.u64(s.target);
        break;
      case StmtKind::Jump:
        w.u8(s.indirect ? 1 : 0);
        if (s.indirect)
            writeOperand(w, s.a);
        else
            w.u64(s.target);
        break;
      case StmtKind::Ret:
        break;
    }
}

bool
readStmt(ByteReader &r, Stmt &s)
{
    std::uint8_t kind;
    if (!r.u8(kind) || kind > static_cast<std::uint8_t>(StmtKind::Ret))
        return false;
    s = Stmt();
    s.kind = static_cast<StmtKind>(kind);
    std::uint8_t flag;
    std::uint64_t imm;
    switch (s.kind) {
      case StmtKind::Get:
        return r.u32(s.dst) && r.u16(s.reg);
      case StmtKind::Put:
        return r.u16(s.reg) && readOperand(r, s.a);
      case StmtKind::Const:
        if (!r.u32(s.dst) || !r.u64(imm))
            return false;
        s.a = Operand::ofImm(imm);
        return true;
      case StmtKind::Binop: {
        std::uint8_t op;
        if (!r.u32(s.dst) || !r.u8(op) ||
            op > static_cast<std::uint8_t>(ir::BinOp::CmpGe)) {
            return false;
        }
        s.op = static_cast<ir::BinOp>(op);
        return readOperand(r, s.a) && readOperand(r, s.b);
      }
      case StmtKind::Load:
        return r.u32(s.dst) && readOperand(r, s.a);
      case StmtKind::Store:
        return readOperand(r, s.a) && readOperand(r, s.b);
      case StmtKind::Call:
        if (!r.u8(flag))
            return false;
        s.indirect = flag != 0;
        return s.indirect ? readOperand(r, s.a) : r.u64(s.target);
      case StmtKind::Branch:
        return readOperand(r, s.a) && r.u64(s.target);
      case StmtKind::Jump:
        if (!r.u8(flag))
            return false;
        s.indirect = flag != 0;
        return s.indirect ? readOperand(r, s.a) : r.u64(s.target);
      case StmtKind::Ret:
        return true;
    }
    return false;
}

/** True when every temporary `s` names is below `numTmps` and its
 * register is inside the guest register file: the analyses index
 * per-function state with these ids unchecked. */
bool
idsInRange(const Stmt &s, std::uint32_t numTmps)
{
    const auto tmpOk = [numTmps](const Operand &op) {
        return !op.isTmp() || op.tmp < numTmps;
    };
    if (s.definesTmp() && s.dst >= numTmps)
        return false;
    if ((s.kind == StmtKind::Get || s.kind == StmtKind::Put) &&
        s.reg >= ir::kNumRegs) {
        return false;
    }
    return tmpOk(s.a) && tmpOk(s.b);
}

} // namespace

std::vector<std::uint8_t>
writeBinary(const BinaryImage &image)
{
    ByteWriter w;
    w.u8('F');
    w.u8('B');
    w.u8('I');
    w.u8('N');
    w.u32(kFbinVersion);
    w.str(image.name);
    w.u8(static_cast<std::uint8_t>(image.arch));
    w.u8(image.stripped ? 1 : 0);

    w.u32(static_cast<std::uint32_t>(image.sections.size()));
    for (const auto &sec : image.sections) {
        w.str(sec.name);
        w.u64(sec.addr);
        w.u8(sec.flags);
        w.u32(static_cast<std::uint32_t>(sec.bytes.size()));
        w.raw(sec.bytes);
    }

    w.u32(static_cast<std::uint32_t>(image.imports.size()));
    for (const auto &imp : image.imports) {
        w.u64(imp.pltAddr);
        w.str(imp.name);
        w.str(imp.library);
    }

    w.u32(static_cast<std::uint32_t>(image.symbols.size()));
    for (const auto &sym : image.symbols) {
        w.u64(sym.addr);
        w.str(sym.name);
    }

    w.u32(static_cast<std::uint32_t>(image.neededLibraries.size()));
    for (const auto &dep : image.neededLibraries)
        w.str(dep);

    w.u32(static_cast<std::uint32_t>(image.program.size()));
    for (const auto &fn : image.program.functions()) {
        w.u64(fn.entry);
        w.str(fn.name);
        w.u32(fn.numTmps);
        w.u32(static_cast<std::uint32_t>(fn.blocks.size()));
        for (const auto &block : fn.blocks) {
            w.u64(block.addr);
            w.u32(static_cast<std::uint32_t>(block.stmts.size()));
            for (const auto &stmt : block.stmts)
                writeStmt(w, stmt);
        }
    }

    return w.take();
}

support::Result<BinaryImage>
loadBinary(const std::vector<std::uint8_t> &bytes)
{
    using R = support::Result<BinaryImage>;
    using support::ErrorCode;
    using support::Stage;
    const auto err = [](ErrorCode code, std::string message) {
        return R::error(support::Status::error(
            Stage::Lift, code, std::move(message)));
    };

    ByteReader r(bytes);

    std::uint8_t magic[4];
    for (auto &m : magic) {
        if (!r.u8(m))
            return err(ErrorCode::Truncated, "truncated header");
    }
    if (magic[0] != 'F' || magic[1] != 'B' || magic[2] != 'I' ||
        magic[3] != 'N') {
        return err(ErrorCode::BadMagic, "bad magic (not an FBIN)");
    }

    std::uint32_t version;
    if (!r.u32(version))
        return err(ErrorCode::Truncated, "truncated header");
    if (version != kFbinVersion) {
        return err(ErrorCode::BadVersion,
                   support::format("unsupported FBIN version %u",
                                   version));
    }

    BinaryImage image;
    std::uint8_t arch, stripped;
    if (!r.str(image.name) || !r.u8(arch) || !r.u8(stripped))
        return err(ErrorCode::Truncated, "truncated identification");
    if (arch > static_cast<std::uint8_t>(Arch::Mips))
        return err(ErrorCode::Corrupt, "unknown architecture tag");
    image.arch = static_cast<Arch>(arch);
    image.stripped = stripped != 0;

    std::uint32_t count;
    if (!r.u32(count))
        return err(ErrorCode::Truncated, "truncated section table");
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        Section sec;
        std::uint32_t size;
        if (!r.str(sec.name) || !r.u64(sec.addr) || !r.u8(sec.flags) ||
            !r.u32(size) || !r.raw(sec.bytes, size)) {
            return err(ErrorCode::Corrupt, "malformed section");
        }
        image.sections.push_back(std::move(sec));
    }

    if (!r.u32(count))
        return err(ErrorCode::Truncated, "truncated import table");
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        Import imp;
        if (!r.u64(imp.pltAddr) || !r.str(imp.name) ||
            !r.str(imp.library)) {
            return err(ErrorCode::Corrupt, "malformed import");
        }
        image.imports.push_back(std::move(imp));
    }

    if (!r.u32(count))
        return err(ErrorCode::Truncated, "truncated symbol table");
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        Symbol sym;
        if (!r.u64(sym.addr) || !r.str(sym.name))
            return err(ErrorCode::Corrupt, "malformed symbol");
        image.symbols.push_back(std::move(sym));
    }

    if (!r.u32(count))
        return err(ErrorCode::Truncated, "truncated dependency table");
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        std::string dep;
        if (!r.str(dep))
            return err(ErrorCode::Corrupt, "malformed dependency entry");
        image.neededLibraries.push_back(std::move(dep));
    }

    if (!r.u32(count))
        return err(ErrorCode::Truncated, "truncated function table");
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
        ir::Function fn;
        std::uint32_t nBlocks;
        if (!r.u64(fn.entry) || !r.str(fn.name) || !r.u32(fn.numTmps) ||
            !r.u32(nBlocks)) {
            return err(ErrorCode::Corrupt, "malformed function header");
        }
        if (image.program.functionAt(fn.entry) != nullptr)
            return err(ErrorCode::Corrupt, "duplicate function entry");
        std::size_t stmtCount = 0;
        for (std::uint32_t b = 0; b < nBlocks && r.ok(); ++b) {
            ir::BasicBlock block;
            std::uint32_t nStmts;
            if (!r.u64(block.addr) || !r.u32(nStmts))
                return err(ErrorCode::Corrupt, "malformed block header");
            // Analyses map a block address to one block; a repeated or
            // descending address would make that mapping ambiguous.
            if (b > 0 && block.addr <= fn.blocks.back().addr)
                return err(ErrorCode::Corrupt,
                           "block addresses not increasing");
            block.stmts.reserve(std::min<std::uint32_t>(nStmts, 4096));
            for (std::uint32_t s = 0; s < nStmts; ++s) {
                ir::Stmt stmt;
                if (!readStmt(r, stmt))
                    return err(ErrorCode::Corrupt, "malformed statement");
                if (!idsInRange(stmt, fn.numTmps)) {
                    return err(ErrorCode::Corrupt,
                               "statement id out of range");
                }
                block.stmts.push_back(stmt);
            }
            stmtCount += block.stmts.size();
            fn.blocks.push_back(std::move(block));
        }
        if (!r.ok())
            return err(ErrorCode::Truncated, "truncated function body");
        // Each temporary is defined by a statement of its function.
        if (fn.numTmps > stmtCount)
            return err(ErrorCode::Corrupt,
                       "more temporaries than statements");
        image.program.addFunction(std::move(fn));
    }

    if (!r.ok())
        return err(ErrorCode::Truncated, "truncated file");
    if (!r.atEnd())
        return err(ErrorCode::Corrupt, "trailing bytes after function table");

    image.reindexImports();
    return R::ok(std::move(image));
}

} // namespace fits::bin
