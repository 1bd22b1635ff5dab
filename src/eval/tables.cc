#include "tables.hh"

#include <algorithm>

#include "support/strings.hh"

namespace fits::eval {

const std::string TablePrinter::kSeparatorTag_ = "\x01sep";

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void
TablePrinter::addSeparator()
{
    rows_.push_back({kSeparatorTag_});
}

std::string
TablePrinter::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        if (!row.empty() && row[0] == kSeparatorTag_)
            continue;
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::string out;
    auto renderSeparator = [&]() {
        out += "+";
        for (std::size_t w : widths)
            out += std::string(w + 2, '-') + "+";
        out += "\n";
    };
    auto renderCells = [&](const std::vector<std::string> &cells) {
        out += "|";
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell =
                c < cells.size() ? cells[c] : std::string();
            out += " " + cell +
                   std::string(widths[c] - cell.size(), ' ') + " |";
        }
        out += "\n";
    };

    renderSeparator();
    renderCells(headers_);
    renderSeparator();
    for (const auto &row : rows_) {
        if (!row.empty() && row[0] == kSeparatorTag_)
            renderSeparator();
        else
            renderCells(row);
    }
    renderSeparator();
    return out;
}

void
TablePrinter::print() const
{
    std::fputs(render().c_str(), stdout);
}

std::string
renderEngineTable(const TaintTotals &totals)
{
    std::vector<std::string> headers{""}, alerts{"Alerts"}, bugs{"Bugs"},
        fpRate{"FP rate"};
    for (std::size_t r = 0; r < kTaintRuns.size(); ++r) {
        headers.push_back(kTaintRuns[r].title);
        alerts.push_back(std::to_string(totals.runs[r].alerts));
        bugs.push_back(std::to_string(totals.runs[r].bugs));
        fpRate.push_back(percent(totals.runs[r].falsePositiveRate()));
    }
    TablePrinter table(std::move(headers));
    for (auto *row : {&alerts, &bugs, &fpRate})
        table.addRow(std::move(*row));
    return table.render();
}

std::string
percent(double ratio)
{
    return support::format("%.0f%%", ratio * 100.0);
}

std::string
hmm(double ms)
{
    const long totalSeconds = static_cast<long>(ms / 1000.0);
    return support::format("%ld:%02ld.%03ld", totalSeconds / 60,
                           totalSeconds % 60,
                           static_cast<long>(ms) % 1000);
}

std::string
fixed(double value, int digits)
{
    return support::format("%.*f", digits, value);
}

} // namespace fits::eval
