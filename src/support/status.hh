#ifndef FITS_SUPPORT_STATUS_HH_
#define FITS_SUPPORT_STATUS_HH_

#include <cstdint>
#include <string>
#include <utility>

namespace fits::support {

/**
 * Pipeline stage an error is attributed to. Every failure that crosses
 * a module boundary names the stage that produced it, so corpus-level
 * failure accounting (and the `pipeline.errors.<stage>` observability
 * counters) can aggregate without parsing message text.
 */
enum class Stage : std::uint8_t {
    None,       ///< not attributed (legacy string-only errors)
    Unpack,     ///< firmware container decode (magic/crypto/checksum)
    Filesystem, ///< file-table / file-system structure
    Select,     ///< network-binary selection
    Lift,       ///< FBIN decode ("lifting") of a binary or library
    Ucse,       ///< under-constrained symbolic exploration
    Infer,      ///< clustering + ranking
    Taint,      ///< taint engines
};

const char *stageName(Stage stage);

/**
 * Machine-readable failure class. Every code but `Timeout` and
 * `Internal` is a property of the input.
 */
enum class ErrorCode : std::uint8_t {
    Ok,
    Truncated,     ///< input ends before a structure completes
    BadMagic,      ///< container/format magic not found
    BadVersion,    ///< recognized container, unsupported version
    Corrupt,       ///< structure decodes but is inconsistent (checksum)
    Unsupported,   ///< valid input the implementation refuses (opaque
                   ///< vendor crypto, unknown arch)
    NotFound,      ///< a referenced object is absent (file, library)
    Timeout,       ///< a per-stage deadline expired
    Internal,      ///< unexpected failure (escaped worker exception)
};

const char *errorCodeName(ErrorCode code);

/**
 * Typed error status: stage + code + human-readable message. The unit
 * of the structured error taxonomy — module boundaries return
 * `Result<T>` carrying one of these instead of a bare string, so
 * callers can branch on *what* failed (and the corpus layer can decide
 * fail/degrade) without string matching.
 */
class Status
{
  public:
    /** Default-constructed status is OK. */
    Status() = default;

    static Status
    ok()
    {
        return Status();
    }

    static Status
    error(Stage stage, ErrorCode code, std::string message)
    {
        Status s;
        s.stage_ = stage;
        s.code_ = code;
        s.message_ = std::move(message);
        return s;
    }

    /** Untyped error (Stage::None / Internal). */
    static Status
    internal(std::string message)
    {
        return error(Stage::None, ErrorCode::Internal,
                     std::move(message));
    }

    bool isOk() const { return code_ == ErrorCode::Ok; }
    explicit operator bool() const { return isOk(); }

    Stage stage() const { return stage_; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "[stage/code] message" rendering ("ok" for success). */
    std::string toString() const;

  private:
    Stage stage_ = Stage::None;
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

} // namespace fits::support

#endif // FITS_SUPPORT_STATUS_HH_
