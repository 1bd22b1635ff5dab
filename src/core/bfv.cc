#include "bfv.hh"

namespace fits::core {

const char *
Bfv::featureName(int index)
{
    switch (index) {
      case 0:  return "num-basic-blocks";
      case 1:  return "has-loops";
      case 2:  return "num-callers";
      case 3:  return "num-params";
      case 4:  return "num-anchor-calls";
      case 5:  return "num-lib-calls";
      case 6:  return "params-control-loops";
      case 7:  return "params-control-branches";
      case 8:  return "params-to-anchors";
      case 9:  return "args-have-strings";
      case 10: return "num-distinct-strings";
    }
    return "?";
}

void
Bfv::write(std::span<double, kNumFeatures> out) const
{
    out[0] = numBlocks;
    out[1] = hasLoop ? 1.0 : 0.0;
    out[2] = numCallers;
    out[3] = numParams;
    out[4] = numAnchorCalls;
    out[5] = numLibCalls;
    out[6] = paramsControlLoop ? 1.0 : 0.0;
    out[7] = paramsControlBranch ? 1.0 : 0.0;
    out[8] = paramsToAnchor ? 1.0 : 0.0;
    out[9] = argsHaveStrings ? 1.0 : 0.0;
    out[10] = numDistinctStrings;
}

ml::Vec
Bfv::toVector() const
{
    ml::Vec out(kNumFeatures);
    write(std::span<double, kNumFeatures>(out));
    return out;
}

std::vector<int>
Bfv::keptFeatures(int dropIndex, int keepIndex)
{
    std::vector<int> kept;
    for (int k = 0; k < kNumFeatures; ++k) {
        if (keepIndex >= 0 ? keepIndex >= kNumFeatures || k == keepIndex
                           : k != dropIndex) {
            kept.push_back(k);
        }
    }
    return kept;
}

} // namespace fits::core
