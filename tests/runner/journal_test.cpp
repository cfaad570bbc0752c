/**
 * Crash-safety tests for the sweep journal: round-trip, corrupt-tail and
 * truncated-tail recovery, header verification, and the stability of the
 * canonical spec hash the journal keys on.
 */

#include "runner/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "runner/job_spec.hpp"

namespace stackscope::runner {
namespace {

/** Unique-per-test temp path, removed on destruction. */
class TempPath
{
  public:
    TempPath()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "stackscope_journal_" +
                info->test_suite_name() + "_" + info->name();
    }
    ~TempPath() { std::remove(path_.c_str()); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

JournalRecord
record(const std::string &hash, const std::string &label)
{
    JournalRecord rec;
    rec.spec_hash = hash;
    rec.label = label;
    rec.status = "ok";
    rec.attempts = 1;
    rec.job_json = "{\"label\":\"" + label + "\"}";
    rec.csv = label + ",dispatch,1\n" + label + ",issue,2";
    return rec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(SweepJournal, RoundTripsRecords)
{
    const TempPath path;
    {
        SweepJournal journal =
            SweepJournal::create(path.str(), "00000000deadbeef");
        journal.append(record("1111111111111111", "mcf/bdw/x1"));
        journal.append(record("2222222222222222", "gcc/knl/x2"));
    }
    SweepJournal resumed =
        SweepJournal::resume(path.str(), "00000000deadbeef");
    ASSERT_EQ(resumed.records().size(), 2u);
    const JournalRecord *rec = resumed.find("2222222222222222");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->label, "gcc/knl/x2");
    EXPECT_EQ(rec->status, "ok");
    EXPECT_EQ(rec->attempts, 1u);
    EXPECT_EQ(rec->job_json, "{\"label\":\"gcc/knl/x2\"}");
    EXPECT_NE(rec->csv.find("issue,2"), std::string::npos);
    EXPECT_EQ(resumed.find("3333333333333333"), nullptr);
}

TEST(SweepJournal, DropsTruncatedTail)
{
    const TempPath path;
    {
        SweepJournal journal = SweepJournal::create(path.str(), "feed");
        journal.append(record("1111111111111111", "a"));
        journal.append(record("2222222222222222", "b"));
    }
    // Simulate a crash mid-append: cut the last record's line short.
    std::string bytes = slurp(path.str());
    const std::size_t cut = bytes.find("2222222222222222");
    ASSERT_NE(cut, std::string::npos);
    {
        std::ofstream out(path.str(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(cut + 4));
    }
    SweepJournal resumed = SweepJournal::resume(path.str(), "feed");
    ASSERT_EQ(resumed.records().size(), 1u);
    EXPECT_NE(resumed.find("1111111111111111"), nullptr);

    // The corrupt tail must be gone from disk: a fresh append and a
    // second resume must see exactly the intact record plus the new one.
    resumed.append(record("3333333333333333", "c"));
    SweepJournal again = SweepJournal::resume(path.str(), "feed");
    EXPECT_EQ(again.records().size(), 2u);
    EXPECT_NE(again.find("3333333333333333"), nullptr);
    EXPECT_EQ(again.find("2222222222222222"), nullptr);
}

TEST(SweepJournal, RejectsCorruptChecksum)
{
    const TempPath path;
    {
        SweepJournal journal = SweepJournal::create(path.str(), "feed");
        journal.append(record("1111111111111111", "a"));
        journal.append(record("2222222222222222", "b"));
    }
    // Flip one payload byte of the *first* record: it and everything
    // after it (the crash tail, conservatively) must be dropped.
    std::string bytes = slurp(path.str());
    const std::size_t at = bytes.find("\"a\"");
    ASSERT_NE(at, std::string::npos);
    bytes[at + 1] = 'z';
    {
        std::ofstream out(path.str(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    SweepJournal resumed = SweepJournal::resume(path.str(), "feed");
    EXPECT_TRUE(resumed.records().empty());
}

TEST(SweepJournal, RejectsWrongSweepHash)
{
    const TempPath path;
    {
        SweepJournal journal = SweepJournal::create(path.str(), "aaaa");
        journal.append(record("1111111111111111", "a"));
    }
    EXPECT_THROW((void)SweepJournal::resume(path.str(), "bbbb"),
                 StackscopeError);
}

TEST(SweepJournal, RejectsNonJournalFile)
{
    const TempPath path;
    {
        std::ofstream out(path.str(), std::ios::binary);
        out << "{\"schema\":\"stackscope-report\"}\n";
    }
    EXPECT_THROW((void)SweepJournal::resume(path.str(), "aaaa"),
                 StackscopeError);
}

TEST(SweepJournal, ResumeOfMissingFileFails)
{
    EXPECT_THROW((void)SweepJournal::resume(
                     ::testing::TempDir() + "stackscope_journal_missing",
                     "aaaa"),
                 StackscopeError);
}

TEST(Crc32, MatchesKnownVectors)
{
    // IEEE 802.3 check value for "123456789".
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32(""), 0u);
}

TEST(JobSpec, HashIsStableAndAttemptInvariant)
{
    JobSpec spec;
    spec.workload = "mcf";
    spec.machine = "bdw";
    spec.cores = 2;
    spec.instrs = 30'000;

    const std::string base = specHash(spec);
    EXPECT_EQ(base.size(), 16u);

    // The retry attempt is runtime state, not identity.
    JobSpec retried = spec;
    retried.options.attempt = 3;
    EXPECT_EQ(specHash(retried), base);

    // Everything that changes the simulation changes the hash.
    JobSpec other = spec;
    other.cores = 4;
    EXPECT_NE(specHash(other), base);
    other = spec;
    other.options.deadline_cycles = 1'000;
    EXPECT_NE(specHash(other), base);
    other = spec;
    other.options.fault =
        validate::FaultSpec{validate::FaultKind::kStackLeak, 7};
    EXPECT_NE(specHash(other), base);
}

// The canonical bytes and their FNV-1a key are the contract behind every
// journal and result-cache key (job_spec.hpp): a change to either orphans
// every stored entry, so both are pinned byte for byte.
TEST(JobSpec, CanonicalBytesAndKeysArePinned)
{
    // The docs/serving.md example {"workload":"mcf","machine":"bdw",
    // "instrs":20000}, as the wire parser and the CLI resolve it.
    JobSpec mcf;
    mcf.workload = "mcf";
    mcf.machine = "bdw";
    mcf.instrs = 30'000;
    mcf.options.warmup_instrs = 10'000;
    EXPECT_EQ(canonicalJson(mcf),
              "{\"workload\":\"mcf\",\"machine\":\"bdw\",\"cores\":1,"
              "\"instrs\":30000,\"options\":{\"spec_mode\":\"oracle\","
              "\"accounting\":true,\"engine\":\"batched\",\"max_cycles\":0,"
              "\"warmup_instrs\":10000,\"validation\":\"off\","
              "\"validation_interval\":8192,\"watchdog_cycles\":0,"
              "\"deadline_cycles\":0,\"job_timeout_seconds\":0,"
              "\"fault\":null,\"interval_cycles\":0,\"trace_events\":false,"
              "\"trace_capacity\":65536}}");
    EXPECT_EQ(specHash(mcf), "5afabf17cffc7e3f");

    // Every option away from its default, a fault and a non-integer
    // timeout included.
    JobSpec all;
    all.workload = "povray";
    all.machine = "knl";
    all.cores = 3;
    all.instrs = 123'457;
    sim::SimOptions &o = all.options;
    o.spec_mode = stacks::SpeculationMode::kSpecCounters;
    o.accounting = false;
    o.reference_engine = true;
    o.max_cycles = 9'000'001;
    o.warmup_instrs = 4'567;
    o.validation = validate::ValidationPolicy::kStrict;
    o.validation_interval = 1'024;
    o.watchdog_cycles = 77'777;
    o.deadline_cycles = 88'888'888;
    o.job_timeout_seconds = 0.1;
    o.attempt = 5;
    o.fault = validate::FaultSpec{validate::FaultKind::kTransientLeak, 42};
    o.obs.interval_cycles = 500;
    o.obs.trace_events = true;
    o.obs.trace_capacity = 4'096;
    EXPECT_EQ(canonicalJson(all),
              "{\"workload\":\"povray\",\"machine\":\"knl\",\"cores\":3,"
              "\"instrs\":123457,\"options\":{\"spec_mode\":"
              "\"spec-counters\",\"accounting\":false,\"engine\":"
              "\"reference\",\"max_cycles\":9000001,\"warmup_instrs\":4567,"
              "\"validation\":\"strict\",\"validation_interval\":1024,"
              "\"watchdog_cycles\":77777,\"deadline_cycles\":88888888,"
              "\"job_timeout_seconds\":0.10000000000000001,"
              "\"fault\":\"transient-leak:42\",\"interval_cycles\":500,"
              "\"trace_events\":true,\"trace_capacity\":4096}}");
    EXPECT_EQ(specHash(all), "4628740d8e2d39b9");
}

TEST(JobSpec, CanonicalJsonExcludesAttempt)
{
    JobSpec spec;
    spec.workload = "mcf";
    spec.machine = "bdw";
    spec.options.attempt = 9;
    const std::string json = canonicalJson(spec);
    EXPECT_EQ(json.find("attempt"), std::string::npos) << json;
    EXPECT_NE(json.find("\"workload\":\"mcf\""), std::string::npos)
        << json;
}

}  // namespace
}  // namespace stackscope::runner
