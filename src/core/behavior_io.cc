#include "behavior_io.hh"

#include "binary/bytebuf.hh"
#include "support/strings.hh"

namespace fits::core {

namespace {

/** Bumps whenever the layout below (or the meaning of any serialized
 * field) changes; mixed into the config fingerprint so stale disk
 * entries key-miss instead of mis-parsing. */
constexpr std::uint64_t kBundleFormatVersion = 2;

constexpr char kBundleMagic[4] = {'F', 'B', 'B', '1'};

void
writeBfv(bin::StringByteWriter &out, const Bfv &bfv)
{
    // Table-1 declaration order; any reordering is a format bump.
    out.f64(bfv.numBlocks);
    out.u8(bfv.hasLoop ? 1 : 0);
    out.f64(bfv.numCallers);
    out.f64(bfv.numParams);
    out.f64(bfv.numAnchorCalls);
    out.f64(bfv.numLibCalls);
    out.u8(bfv.paramsControlLoop ? 1 : 0);
    out.u8(bfv.paramsControlBranch ? 1 : 0);
    out.u8(bfv.paramsToAnchor ? 1 : 0);
    out.u8(bfv.argsHaveStrings ? 1 : 0);
    out.f64(bfv.numDistinctStrings);
}

/** A u8 flag. Past the end it reads false and leaves the reader's
 * sticky error set, which rejects the bundle. */
bool
readFlag(bin::ByteReader &in)
{
    std::uint8_t v = 0;
    in.u8(v);
    return v != 0;
}

void
readBfv(bin::ByteReader &in, Bfv &bfv)
{
    in.f64(bfv.numBlocks);
    bfv.hasLoop = readFlag(in);
    in.f64(bfv.numCallers);
    in.f64(bfv.numParams);
    in.f64(bfv.numAnchorCalls);
    in.f64(bfv.numLibCalls);
    bfv.paramsControlLoop = readFlag(in);
    bfv.paramsControlBranch = readFlag(in);
    bfv.paramsToAnchor = readFlag(in);
    bfv.argsHaveStrings = readFlag(in);
    in.f64(bfv.numDistinctStrings);
}

/** A count-prefixed list of function ids. Custom and anchor ids index
 * the `numRecords` records: inference reads records[id] unchecked,
 * so an id past the end is corruption. */
bool
readFnIds(bin::ByteReader &in, std::size_t numRecords,
          std::vector<analysis::FnId> &ids)
{
    std::uint32_t n;
    if (!in.u32(n) || in.remaining() / 4 < n)
        return false;
    ids.resize(n);
    for (analysis::FnId &id : ids) {
        if (!in.u32(id) || id >= numRecords)
            return false;
    }
    return true;
}

/** Wire size of a record without its name: id, entry, name length,
 * two flags, the BFV (six f64, five u8). */
constexpr std::size_t kRecordFixedBytes = 4 + 8 + 4 + 2 + (6 * 8 + 5);

/** The exact size encodeBehaviorBundle writes. Reserving it keeps the
 * writer from growing through a ladder of buffers, which raised the
 * cold corpus run's peak RSS. */
std::size_t
encodedSize(const BehaviorBundle &bundle)
{
    const fw::ImageInfo &info = bundle.imageInfo;
    std::size_t size = 4 + 4 + 3 * 4 + info.vendor.size() +
                       info.product.size() + info.version.size() + 1 +
                       4 + bundle.binaryName.size() + 8 + 8 + 4;
    for (const FunctionRecord &rec : bundle.behavior.records)
        size += kRecordFixedBytes + rec.name.size();
    return size + 4 + 4 * bundle.behavior.customFns.size() + 4 +
           4 * bundle.behavior.anchorFns.size();
}

} // namespace

std::string
encodeBehaviorBundle(const BehaviorBundle &bundle)
{
    bin::StringByteWriter out;
    out.reserve(encodedSize(bundle));
    for (const char m : kBundleMagic)
        out.u8(static_cast<std::uint8_t>(m));
    out.u32(static_cast<std::uint32_t>(kBundleFormatVersion));

    out.str(bundle.imageInfo.vendor);
    out.str(bundle.imageInfo.product);
    out.str(bundle.imageInfo.version);
    out.u8(static_cast<std::uint8_t>(bundle.imageInfo.encoding));

    out.str(bundle.binaryName);
    out.u64(bundle.numFunctions);
    out.u64(bundle.binaryBytes);

    const BehaviorRepr &br = bundle.behavior;
    out.u32(static_cast<std::uint32_t>(br.records.size()));
    for (const FunctionRecord &rec : br.records) {
        out.u32(rec.id);
        out.u64(rec.entry);
        out.str(rec.name);
        out.u8(rec.isCustom ? 1 : 0);
        out.u8(rec.isAnchor ? 1 : 0);
        writeBfv(out, rec.bfv);
    }
    out.u32(static_cast<std::uint32_t>(br.customFns.size()));
    for (analysis::FnId id : br.customFns)
        out.u32(id);
    out.u32(static_cast<std::uint32_t>(br.anchorFns.size()));
    for (analysis::FnId id : br.anchorFns)
        out.u32(id);
    return out.take();
}

std::optional<BehaviorBundle>
decodeBehaviorBundle(std::string_view payload)
{
    if (payload.substr(0, 4) != std::string_view(kBundleMagic, 4))
        return std::nullopt;
    bin::ByteReader in(
        reinterpret_cast<const std::uint8_t *>(payload.data()),
        payload.size());
    std::uint32_t version = 0;
    if (!in.seek(4) || !in.u32(version) || version != kBundleFormatVersion)
        return std::nullopt;

    BehaviorBundle bundle;
    std::uint8_t encoding = 0;
    in.str(bundle.imageInfo.vendor);
    in.str(bundle.imageInfo.product);
    in.str(bundle.imageInfo.version);
    in.u8(encoding);
    bundle.imageInfo.encoding = static_cast<fw::Encoding>(encoding);

    in.str(bundle.binaryName);
    in.u64(bundle.numFunctions);
    in.u64(bundle.binaryBytes);

    std::uint32_t numRecords = 0;
    if (!in.u32(numRecords) ||
        in.remaining() / kRecordFixedBytes < numRecords)
        return std::nullopt;
    auto &records = bundle.behavior.records;
    records.resize(numRecords);
    for (FunctionRecord &rec : records) {
        in.u32(rec.id);
        in.u64(rec.entry);
        in.str(rec.name);
        rec.isCustom = readFlag(in);
        rec.isAnchor = readFlag(in);
        readBfv(in, rec.bfv);
    }

    if (!readFnIds(in, records.size(), bundle.behavior.customFns) ||
        !readFnIds(in, records.size(), bundle.behavior.anchorFns) ||
        !in.atEnd())
        return std::nullopt;
    return bundle;
}

std::uint64_t
behaviorConfigFingerprint(const BehaviorAnalyzer::Config &config)
{
    bin::StringByteWriter fields;
    fields.u64(kBundleFormatVersion);
    fields.u64(static_cast<std::uint64_t>(config.ucse.maxSteps));
    fields.u64(static_cast<std::uint64_t>(analysis::kUcseMaxVisitsPerBlock));
    fields.u64(static_cast<std::uint64_t>(BehaviorAnalyzer::kMaxStringsPerArg));
    return support::fnv1a(fields.take());
}

} // namespace fits::core
