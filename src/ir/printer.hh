#ifndef FITS_IR_PRINTER_HH_
#define FITS_IR_PRINTER_HH_

#include <string>

#include "ir/function.hh"

namespace fits::ir {

/** Render a function as readable IR text (for debugging and tests). */
std::string printFunction(const Function &fn);

} // namespace fits::ir

#endif // FITS_IR_PRINTER_HH_
