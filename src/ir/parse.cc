#include "parse.hh"

#include <cctype>
#include <optional>

#include "support/status.hh"
#include "support/strings.hh"

namespace fits::ir {

namespace {

/** Minimal recursive-descent cursor over one line. */
class Cursor
{
  public:
    explicit Cursor(std::string_view text)
        : text_(text)
    {
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() && text_[pos_] == ' ')
            ++pos_;
    }

    bool
    literal(std::string_view expected)
    {
        skipSpace();
        if (text_.substr(pos_, expected.size()) != expected)
            return false;
        pos_ += expected.size();
        return true;
    }

    std::optional<std::uint64_t>
    number()
    {
        skipSpace();
        std::size_t i = pos_;
        std::uint64_t value = 0;
        if (text_.substr(i, 2) == "0x") {
            i += 2;
            std::size_t digits = 0;
            while (i < text_.size() && std::isxdigit(
                                           static_cast<unsigned char>(
                                               text_[i]))) {
                const char c = text_[i];
                value = value * 16 +
                        static_cast<std::uint64_t>(
                            c <= '9' ? c - '0'
                                     : (c | 0x20) - 'a' + 10);
                ++i;
                ++digits;
            }
            if (digits == 0)
                return std::nullopt;
        } else {
            std::size_t digits = 0;
            while (i < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(
                       text_[i]))) {
                value = value * 10 +
                        static_cast<std::uint64_t>(text_[i] - '0');
                ++i;
                ++digits;
            }
            if (digits == 0)
                return std::nullopt;
        }
        pos_ = i;
        return value;
    }

    std::optional<TmpId>
    tmp()
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != 't')
            return std::nullopt;
        ++pos_;
        auto n = number();
        if (!n)
            return std::nullopt;
        return static_cast<TmpId>(*n);
    }

    std::optional<RegId>
    reg()
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != 'r')
            return std::nullopt;
        ++pos_;
        auto n = number();
        if (!n)
            return std::nullopt;
        return static_cast<RegId>(*n);
    }

    std::optional<Operand>
    operand()
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == 't') {
            auto t = tmp();
            if (!t)
                return std::nullopt;
            return Operand::ofTmp(*t);
        }
        auto n = number();
        if (!n)
            return std::nullopt;
        return Operand::ofImm(*n);
    }

    /** Identifier up to the next delimiter. */
    std::string
    word()
    {
        skipSpace();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(
                    text_[pos_])) ||
                text_[pos_] == '_')) {
            ++pos_;
        }
        return std::string(text_.substr(start, pos_ - start));
    }

    bool
    done()
    {
        skipSpace();
        return pos_ >= text_.size();
    }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;
};

std::optional<BinOp>
binOpByName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(BinOp::CmpGe); ++i) {
        const auto op = static_cast<BinOp>(i);
        if (name == binOpName(op))
            return op;
    }
    return std::nullopt;
}

/** Parse one statement body (the part after "<addr>: "). */
std::optional<Stmt>
parseStmt(std::string_view body)
{
    Cursor c(body);

    if (c.literal("RET"))
        return c.done() ? std::optional<Stmt>(Stmt::ret())
                        : std::nullopt;

    if (c.literal("PUT(")) {
        auto r = c.reg();
        if (!r || !c.literal(")") || !c.literal("="))
            return std::nullopt;
        auto v = c.operand();
        if (!v || !c.done())
            return std::nullopt;
        return Stmt::put(*r, *v);
    }

    if (c.literal("STORE(")) {
        auto addr = c.operand();
        if (!addr || !c.literal(")") || !c.literal("="))
            return std::nullopt;
        auto v = c.operand();
        if (!v || !c.done())
            return std::nullopt;
        return Stmt::store(*addr, *v);
    }

    if (c.literal("CALL")) {
        Cursor probe = c;
        if (auto t = probe.tmp(); t && probe.done())
            return Stmt::callIndirect(Operand::ofTmp(*t));
        auto target = c.number();
        if (!target || !c.done())
            return std::nullopt;
        return Stmt::call(*target);
    }

    if (c.literal("IF (")) {
        auto cond = c.operand();
        if (!cond || !c.literal(")") || !c.literal("GOTO"))
            return std::nullopt;
        auto target = c.number();
        if (!target || !c.done())
            return std::nullopt;
        return Stmt::branch(*cond, *target);
    }

    if (c.literal("GOTO")) {
        Cursor probe = c;
        if (auto t = probe.tmp(); t && probe.done())
            return Stmt::jumpIndirect(Operand::ofTmp(*t));
        auto target = c.number();
        if (!target || !c.done())
            return std::nullopt;
        return Stmt::jump(*target);
    }

    // Assignments: "tN = ..."
    auto dst = c.tmp();
    if (!dst || !c.literal("="))
        return std::nullopt;

    if (c.literal("GET(")) {
        auto r = c.reg();
        if (!r || !c.literal(")") || !c.done())
            return std::nullopt;
        return Stmt::get(*dst, *r);
    }
    if (c.literal("LOAD(")) {
        auto addr = c.operand();
        if (!addr || !c.literal(")") || !c.done())
            return std::nullopt;
        return Stmt::load(*dst, *addr);
    }

    // Binop: "<Name>(a, b)" — or a bare constant.
    {
        Cursor probe = c;
        const std::string name = probe.word();
        if (auto op = binOpByName(name)) {
            if (!probe.literal("("))
                return std::nullopt;
            auto lhs = probe.operand();
            if (!lhs || !probe.literal(","))
                return std::nullopt;
            auto rhs = probe.operand();
            if (!rhs || !probe.literal(")") || !probe.done())
                return std::nullopt;
            return Stmt::binop(*dst, *op, *lhs, *rhs);
        }
    }

    auto value = c.number();
    if (!value || !c.done())
        return std::nullopt;
    return Stmt::cnst(*dst, *value);
}

} // namespace

support::Result<Function>
parseFunction(const std::string &text)
{
    using R = support::Result<Function>;
    const auto err = [](std::string message) {
        return R::error(support::Status::error(
            support::Stage::IrParse, support::ErrorCode::Corrupt,
            std::move(message)));
    };

    Function fn;
    bool sawHeader = false;
    BasicBlock *current = nullptr;
    int lineNo = 0;

    for (const std::string &rawLine : support::split(text, '\n')) {
        ++lineNo;
        // Trim.
        std::size_t begin = rawLine.find_first_not_of(" \t");
        if (begin == std::string::npos)
            continue;
        std::size_t end = rawLine.find_last_not_of(" \t\r");
        const std::string line =
            rawLine.substr(begin, end - begin + 1);

        if (support::startsWith(line, "function ")) {
            if (sawHeader)
                return err("duplicate function header");
            sawHeader = true;
            // "function <name> @ <addr> (...)"
            const std::size_t at = line.find(" @ ");
            if (at == std::string::npos)
                return err("malformed function header");
            std::string name =
                line.substr(9, at - 9);
            if (name == "<stripped>")
                name.clear();
            fn.name = std::move(name);
            Cursor c(std::string_view(line).substr(at + 3));
            auto entry = c.number();
            if (!entry)
                return err("missing entry address");
            fn.entry = *entry;
            continue;
        }

        if (support::startsWith(line, "block ")) {
            Cursor c(std::string_view(line).substr(6));
            auto addr = c.number();
            if (!addr || !c.literal(":"))
                return err(support::format(
                    "line %d: malformed block header", lineNo));
            fn.blocks.emplace_back();
            fn.blocks.back().addr = *addr;
            current = &fn.blocks.back();
            continue;
        }

        // "<addr>: <stmt>"
        if (!sawHeader || current == nullptr)
            return err(support::format(
                "line %d: statement outside a block", lineNo));
        const std::size_t colon = line.find(": ");
        if (colon == std::string::npos)
            return err(support::format(
                "line %d: missing statement address", lineNo));
        auto stmt =
            parseStmt(std::string_view(line).substr(colon + 2));
        if (!stmt)
            return err(support::format(
                "line %d: unparsable statement '%s'", lineNo,
                line.substr(colon + 2).c_str()));
        current->stmts.push_back(*stmt);
    }

    if (!sawHeader)
        return err("no function header");
    if (fn.blocks.empty())
        return err("function has no blocks");

    // Recompute numTmps from the statements.
    TmpId maxTmp = 0;
    bool anyTmp = false;
    auto see = [&](const Operand &op) {
        if (op.isTmp()) {
            maxTmp = std::max(maxTmp, op.tmp);
            anyTmp = true;
        }
    };
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            if (stmt.definesTmp()) {
                maxTmp = std::max(maxTmp, stmt.dst);
                anyTmp = true;
            }
            see(stmt.a);
            see(stmt.b);
        }
    }
    fn.numTmps = anyTmp ? maxTmp + 1 : 0;

    return R::ok(std::move(fn));
}

} // namespace fits::ir
