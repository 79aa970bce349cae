#include "snapshot/container.hh"

#include <cstdio>
#include <fstream>

#include "base/strutil.hh"

namespace biglittle
{

Serializer
ContainerFormat::begin() const
{
    Serializer s;
    s.putU32(magic);
    s.putU32(version);
    return s;
}

std::vector<std::uint8_t>
ContainerFormat::seal(Serializer &s)
{
    s.putU64(s.digest());
    return s.takeBytes();
}

Result<Deserializer>
ContainerFormat::open(const std::vector<std::uint8_t> &bytes) const
{
    if (bytes.size() < 8)
        return invalidArgument(format("%s truncated", what));
    // The checksum covers every byte before its own 8.
    const std::size_t body = bytes.size() - 8;
    Deserializer tail(bytes.data() + body, 8);
    const std::uint64_t want = tail.getU64();
    const std::uint64_t have = fnv1a64(bytes.data(), body);
    if (want != have) {
        return invalidArgument(format(
            "%s checksum mismatch: stored %016llx, computed %016llx "
            "(file damaged or truncated)",
            what, static_cast<unsigned long long>(want),
            static_cast<unsigned long long>(have)));
    }

    Deserializer d(bytes.data(), body);
    // Even a checksum-valid file is untrusted: cap what decoding may
    // allocate to a small multiple of the input so a crafted count
    // or length field cannot balloon memory.
    d.limitAllocations(2, 4096);
    const std::uint32_t file_magic = d.getU32();
    if (file_magic != magic) {
        return invalidArgument(
            format("%s has bad magic %08x", what, file_magic));
    }
    const std::uint32_t file_version = d.getU32();
    if (file_version != version) {
        return invalidArgument(
            format("unsupported %s version %u (this build reads %u)",
                   what, file_version, version));
    }
    return d;
}

Result<std::vector<std::uint8_t>>
ContainerFormat::readFile(const std::string &path) const
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return notFound(format("cannot open %s '%s'", what, path.c_str()));
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

Status
ContainerFormat::writeFile(const std::string &path,
                           const std::vector<std::uint8_t> &bytes,
                           const std::function<void()> &beforeRename)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return unavailable("cannot open '" + tmp + "' for writing");
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            return unavailable("short write to '" + tmp + "'");
    }
    if (beforeRename)
        beforeRename();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return unavailable("cannot rename '" + tmp + "' to '" + path +
                           "'");
    }
    return okStatus();
}

} // namespace biglittle
