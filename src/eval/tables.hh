#ifndef FITS_EVAL_TABLES_HH_
#define FITS_EVAL_TABLES_HH_

#include <cstdio>
#include <string>
#include <vector>

#include "eval/harness.hh"

namespace fits::eval {

/**
 * Fixed-width text-table printer for the bench binaries, so every
 * reproduced table renders in the same style as the paper's.
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Insert a horizontal separator before the next row. */
    void addSeparator();

    /** Render the table as a newline-terminated string. */
    std::string render() const;

    /** Render to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    static const std::string kSeparatorTag_;
};

/** The Alerts / Bugs / FP-rate table over the kTaintRuns columns, as
 * `fits corpus --taint` and Table 6 print it. */
std::string renderEngineTable(const TaintTotals &totals);

/** "89%"-style rendering of a [0,1] ratio. */
std::string percent(double ratio);

/** "h:mm"-style rendering of milliseconds. */
std::string hmm(double ms);

/** Fixed-precision rendering. */
std::string fixed(double value, int digits = 1);

} // namespace fits::eval

#endif // FITS_EVAL_TABLES_HH_
