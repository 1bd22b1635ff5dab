#include "status.hh"

namespace fits::support {

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::None:       return "none";
      case Stage::Io:         return "io";
      case Stage::Unpack:     return "unpack";
      case Stage::Filesystem: return "filesystem";
      case Stage::Select:     return "select";
      case Stage::Lift:       return "lift";
      case Stage::IrParse:    return "ir-parse";
      case Stage::Ucse:       return "ucse";
      case Stage::Flow:       return "flow";
      case Stage::Bfv:        return "bfv";
      case Stage::Infer:      return "infer";
      case Stage::Taint:      return "taint";
      case Stage::Corpus:     return "corpus";
    }
    return "?";
}

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:            return "ok";
      case ErrorCode::Truncated:     return "truncated";
      case ErrorCode::BadMagic:      return "bad-magic";
      case ErrorCode::BadVersion:    return "bad-version";
      case ErrorCode::Corrupt:       return "corrupt";
      case ErrorCode::Unsupported:   return "unsupported";
      case ErrorCode::NotFound:      return "not-found";
      case ErrorCode::Timeout:       return "timeout";
      case ErrorCode::Internal:      return "internal";
    }
    return "?";
}

std::string
Status::toString() const
{
    if (isOk())
        return "ok";
    std::string out;
    out.reserve(message_.size() + 32);
    out += '[';
    out += stageName(stage_);
    out += '/';
    out += errorCodeName(code_);
    out += "] ";
    out += message_;
    return out;
}

} // namespace fits::support
