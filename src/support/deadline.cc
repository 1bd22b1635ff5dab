#include "deadline.hh"

#include <cmath>
#include <cstdlib>

namespace fits::support {

double
envStageTimeoutMs()
{
    static const double value = [] {
        const char *env = std::getenv("FITS_STAGE_TIMEOUT_MS");
        if (env == nullptr || *env == '\0')
            return 0.0;
        char *end = nullptr;
        const double parsed = std::strtod(env, &end);
        if (end == env || !std::isfinite(parsed) || parsed <= 0.0)
            return 0.0;
        return parsed;
    }();
    return value;
}

} // namespace fits::support
