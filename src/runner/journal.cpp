#include "runner/journal.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace stackscope::runner {

namespace {

constexpr std::string_view kHeaderMagic = "stackscope-journal v1 ";

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

std::string
crcHex(std::uint32_t crc)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", crc);
    return buf;
}

std::string
serializeRecord(const JournalRecord &r)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("spec").value(r.spec_hash)
        .key("label").value(r.label)
        .key("status").value(r.status)
        .key("attempts").value(r.attempts)
        .key("job").value(r.job_json)
        .key("csv").value(r.csv)
        .endObject();
    return w.take();
}

/** Parse one checksummed payload; false on any structural problem. */
bool
parseRecord(std::string_view payload, JournalRecord &out)
{
    try {
        const obs::JsonValue v = obs::parseJson(payload);
        if (!v.isObject())
            return false;
        out.spec_hash = v.at("spec").string;
        out.label = v.at("label").string;
        out.status = v.at("status").string;
        out.attempts = static_cast<unsigned>(v.at("attempts").number);
        out.job_json = v.at("job").string;
        out.csv = v.at("csv").string;
        return true;
    } catch (const StackscopeError &) {
        return false;
    }
}

int
openForAppend(const std::string &path, bool truncate)
{
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "cannot open sweep journal for writing")
            .withContext("path", path)
            .withContext("errno", std::strerror(errno));
    }
    return fd;
}

void
writeDurably(int fd, const std::string &path, std::string_view line)
{
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t n =
            ::write(fd, line.data() + written, line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw StackscopeError(ErrorCategory::kInternal,
                                  "sweep journal write failed")
                .withContext("path", path)
                .withContext("errno", std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        throw StackscopeError(ErrorCategory::kInternal,
                              "sweep journal fsync failed")
            .withContext("path", path)
            .withContext("errno", std::strerror(errno));
    }
}

}  // namespace

std::uint32_t
crc32(std::string_view data)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char ch : data)
        crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^
              (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

SweepJournal::SweepJournal(SweepJournal &&other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_),
      records_(std::move(other.records_))
{
    other.fd_ = -1;
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

SweepJournal
SweepJournal::create(const std::string &path,
                     const std::string &sweep_hash)
{
    const int fd = openForAppend(path, /*truncate=*/true);
    SweepJournal journal(path, fd);
    writeDurably(fd, path,
                 std::string(kHeaderMagic) + sweep_hash + "\n");
    return journal;
}

SweepJournal
SweepJournal::resume(const std::string &path,
                     const std::string &sweep_hash)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "cannot open sweep journal for resume")
            .withContext("path", path);
    }
    std::string header;
    if (!std::getline(in, header) ||
        header.rfind(kHeaderMagic, 0) != 0) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "not a stackscope sweep journal")
            .withContext("path", path);
    }
    const std::string recorded_hash =
        header.substr(kHeaderMagic.size());
    if (recorded_hash != sweep_hash) {
        throw StackscopeError(
            ErrorCategory::kUsage,
            "journal belongs to a different sweep (its job grid or "
            "options differ from this invocation)")
            .withContext("path", path)
            .withContext("journal_sweep", recorded_hash)
            .withContext("this_sweep", sweep_hash);
    }

    std::vector<JournalRecord> records;
    std::string line;
    std::size_t line_no = 1;
    bool tail_dropped = false;
    // Byte offset just past the last intact line; a corrupt tail is cut
    // back to it so fresh appends never land after garbage.
    auto valid_end = static_cast<off_t>(in.tellg());
    while (std::getline(in, line)) {
        ++line_no;
        // "<crc32hex> <payload>"; anything that does not verify is the
        // crash tail (or corruption) — stop, the rest re-simulates.
        bool ok = false;
        JournalRecord rec;
        if (line.size() > 9 && line[8] == ' ') {
            const std::string_view payload =
                std::string_view(line).substr(9);
            if (crcHex(crc32(payload)) == line.substr(0, 8))
                ok = parseRecord(payload, rec);
        }
        if (!ok) {
            tail_dropped = true;
            log::warn("runner",
                      "journal record failed checksum/parse; dropping it "
                      "and everything after (crash tail)",
                      {{"path", path}, {"line", line_no}});
            break;
        }
        valid_end = static_cast<off_t>(in.tellg());
        records.push_back(std::move(rec));
    }
    in.close();

    if (tail_dropped && ::truncate(path.c_str(), valid_end) != 0) {
        throw StackscopeError(ErrorCategory::kUsage,
                              "cannot truncate corrupt journal tail")
            .withContext("path", path)
            .withContext("errno", std::strerror(errno));
    }

    const int fd = openForAppend(path, /*truncate=*/false);
    SweepJournal journal(path, fd);
    journal.records_ = std::move(records);
    log::debug("runner", "journal resumed",
               {{"path", path},
                {"records", journal.records_.size()},
                {"tail_dropped", tail_dropped}});
    return journal;
}

void
SweepJournal::append(const JournalRecord &record)
{
    const std::string payload = serializeRecord(record);
    const std::string line =
        crcHex(crc32(payload)) + " " + payload + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    writeDurably(fd_, path_, line);
}

const JournalRecord *
SweepJournal::find(std::string_view spec_hash) const
{
    for (const JournalRecord &r : records_) {
        if (r.spec_hash == spec_hash)
            return &r;
    }
    return nullptr;
}

}  // namespace stackscope::runner
