/**
 * @file
 * Seeded byte-mutation test of the wire front door: request lines in
 * the shape docs/serving.md documents are flipped, cut, grown and
 * duplicated byte by byte, and every mutant must either parse to a
 * JobSpec or be refused with a usage or config error. No mutant may
 * crash, throw anything else, or hash differently when parsed again.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runner/job_spec.hpp"
#include "serve/protocol.hpp"

namespace stackscope::serve {
namespace {

/** The request lines of docs/serving.md, plus one spec that sets every
 *  documented options key. */
constexpr std::string_view kSeeds[] = {
    R"({"type":"ping","id":"1"})",
    R"({"type":"statusz","id":"4"})",
    R"({"type":"analyze","id":"2","spec":{"workload":"mcf","machine":"bdw","instrs":20000}})",
    R"({"type":"analyze","id":"5","spec":{"workload":"bwaves","machine":"skx","cores":8,"instrs":5000000}})",
    R"({"type":"analyze","id":"6","spec":{"workload":"mcf","machine":"bdw","instrs":1000,"warmup":0,"options":{"spec_mode":"simple","engine":"reference","validate":"strict","max_cycles":5000,"watchdog_cycles":100000,"deadline_cycles":200000,"job_timeout_seconds":1.5,"interval_cycles":250}}})",
};

using namespace std::string_view_literals;

/** Bytes that steer a mutant into the parser's interesting branches;
 *  the sv literal keeps the NUL byte a plain literal would end at. */
constexpr std::string_view kInteresting =
    "{}[]\":,.-+eE0123456789\\ntu \x00\xff"sv;

char
mutantByte(Rng &rng)
{
    if (rng.chance(0.5))
        return kInteresting[rng.below(kInteresting.size())];
    return static_cast<char>(rng.below(256));
}

/** One to three random edits of @p line. */
std::string
mutate(std::string line, Rng &rng)
{
    const std::uint64_t edits = rng.range(1, 3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const std::size_t pos = rng.below(line.size() + 1);
        const std::size_t len =
            std::min<std::size_t>(rng.range(1, 8), line.size() - pos);
        switch (rng.below(5)) {
          case 0:  // flip a byte
            if (pos < line.size())
                line[pos] = mutantByte(rng);
            break;
          case 1:  // insert a byte
            line.insert(line.begin() + static_cast<std::ptrdiff_t>(pos),
                        mutantByte(rng));
            break;
          case 2:  // delete a byte or a span
            line.erase(pos, len);
            break;
          case 3:  // duplicate a byte or a span in place
            line.insert(pos, line.substr(pos, len));
            break;
          default: {  // copy a span elsewhere
            const std::string span = line.substr(pos, len);
            line.insert(rng.below(line.size() + 1), span);
            break;
          }
        }
    }
    return line;
}

/** specHash of @p line's spec, "" for a request without one; throws
 *  what parseRequest or parseSpec throw. */
std::string
hashOf(const std::string &line)
{
    const Request req = parseRequest(line);
    if (req.kind != Request::Kind::kAnalyze)
        return "";
    return runner::specHash(parseSpec(req.spec));
}

TEST(ProtocolMutationTest, MutantsParseOrFailAsUsageOrConfig)
{
    constexpr int kMutants = 60'000;
    Rng rng(0x5e7e5eedULL);
    int parsed = 0;
    int refused = 0;
    for (int i = 0; i < kMutants; ++i) {
        const std::string line = mutate(
            std::string(kSeeds[rng.below(std::size(kSeeds))]), rng);
        std::string first;
        try {
            first = hashOf(line);
        } catch (const StackscopeError &e) {
            EXPECT_TRUE(e.category() == ErrorCategory::kUsage ||
                        e.category() == ErrorCategory::kConfig)
                << "mutant " << i << ": " << e.describe() << "\n" << line;
            ++refused;
            continue;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " threw " << e.what() << "\n"
                          << line;
            continue;
        }
        if (!first.empty())
            ++parsed;
        EXPECT_EQ(hashOf(line), first)
            << "mutant " << i << " hashed differently on a second parse\n"
            << line;
    }
    // Both outcomes must occur: `parsed` counts only mutants whose spec
    // went through parseSpec, so the mutator reaches the spec decoder.
    EXPECT_GT(parsed, kMutants / 200);
    EXPECT_GT(refused, kMutants / 2);
}

}  // namespace
}  // namespace stackscope::serve
