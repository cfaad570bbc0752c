/**
 * @file
 * The job field table (runner::kJobFields) against what depends on it:
 * the spec tables of docs/serving.md, the wire decoder and the domain
 * parsers behind each choice.
 */

#include "runner/job_spec.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_parse.hpp"
#include "serve/protocol.hpp"

namespace stackscope::runner {
namespace {

const JobField *
findKey(std::string_view key)
{
    for (const JobField &f : kJobFields) {
        if (f.key == key)
            return &f;
    }
    return nullptr;
}

/** The cells of every "| `key` | ..." row between the job-spec heading
 *  and the next section of docs/serving.md. */
std::vector<std::vector<std::string>>
docsSpecRows()
{
    std::ifstream in(STACKSCOPE_SOURCE_DIR "/docs/serving.md");
    EXPECT_TRUE(in.good());
    std::vector<std::vector<std::string>> rows;
    bool inside = false;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("#", 0) == 0)
            inside = line == "### The job spec";
        if (!inside || line.rfind("| `", 0) != 0)
            continue;
        std::vector<std::string> cells;
        std::stringstream cols(line.substr(1));
        for (std::string cell; std::getline(cols, cell, '|');)
            cells.push_back(cell.substr(1, cell.size() - 2));
        rows.push_back(cells);
    }
    return rows;
}

TEST(JobFields, DocsSpecTablesMatchTheFieldTable)
{
    std::size_t documented = 0;
    for (const std::vector<std::string> &cells : docsSpecRows()) {
        ASSERT_GE(cells.size(), 3u);
        const std::string key = cells[0].substr(1, cells[0].size() - 2);
        if (key == "options")
            continue;
        const JobField *f = findKey(key);
        ASSERT_NE(f, nullptr) << "docs/serving.md documents '" << key
                              << "', which is no job field";
        ++documented;
        const char *type = f->type.kind == FieldKind::kCount  ? "int"
                           : f->type.kind == FieldKind::kReal ? "number"
                                                              : "string";
        EXPECT_EQ(cells[1], type) << key;
        // warmup's default is computed (defaultWarmup), not decoded.
        const std::string fallback =
            f->required            ? "*required*"
            : f->fallback.empty()  ? "`instrs/2`"
            : f->type.kind == FieldKind::kChoice
                ? "`\"" + std::string(f->fallback) + "\"`"
                : "`" + std::string(f->fallback) + "`";
        EXPECT_EQ(cells[2], fallback) << key;
    }
    EXPECT_EQ(documented, kJobFieldCount);
}

/** A value other than the default for each field with a flag. */
const std::map<std::string_view, std::string> kSamples = {
    {"workload", "gcc"},       {"machine", "knl"},
    {"cores", "3"},            {"instrs", "1000"},
    {"warmup", "7"},           {"engine", "reference"},
    {"validate", "warn"},      {"watchdog_cycles", "5000"},
    {"deadline_cycles", "9000"}, {"job_timeout_seconds", "2.5"},
    {"interval_cycles", "100"},
};

TEST(JobFields, CliAndWireDecodeEachFlagToOneHash)
{
    for (const JobField &f : kJobFields) {
        if (f.flag.empty())
            continue;
        const auto sample = kSamples.find(f.key);
        ASSERT_NE(sample, kSamples.end()) << "no sample for " << f.key;
        SCOPED_TRACE(std::string(f.key));

        JobSpec cli = defaultJobSpec();
        f.set(cli, decodeText(f.type, f.flag, sample->second));
        addWarmup(cli);

        const bool text = f.type.kind == FieldKind::kText ||
                          f.type.kind == FieldKind::kChoice;
        const std::string value =
            text ? "\"" + sample->second + "\"" : sample->second;
        std::string spec = "{";
        if (f.key != "workload")
            spec += "\"workload\":\"mcf\",";
        if (f.key != "machine")
            spec += "\"machine\":\"bdw\",";
        spec += f.in_options ? "\"options\":{\"" + std::string(f.key) +
                                   "\":" + value + "}}"
                             : "\"" + std::string(f.key) + "\":" + value +
                                   "}";
        const JobSpec wire = serve::parseSpec(obs::parseJson(spec));
        EXPECT_EQ(specHash(cli), specHash(wire)) << spec;
        EXPECT_NE(specHash(cli), specHash([] {
                      JobSpec d = defaultJobSpec();
                      addWarmup(d);
                      return d;
                  }()))
            << "the sample must differ from the default";
    }
}

TEST(JobFields, EveryChoiceReachesTheCanonicalJson)
{
    for (const JobField &f : kJobFields) {
        if (f.type.kind != FieldKind::kChoice)
            continue;
        std::string_view rest = f.type.choices;
        for (std::size_t bar = 0; bar != std::string_view::npos;) {
            bar = rest.find('|');
            const std::string_view name = rest.substr(0, bar);
            rest.remove_prefix(bar == std::string_view::npos ? rest.size()
                                                             : bar + 1);
            JobSpec spec = defaultJobSpec();
            f.set(spec, decodeText(f.type, f.key, name));
            EXPECT_NE(canonicalJson(spec).find("\"" + std::string(name) +
                                               "\""),
                      std::string::npos)
                << f.key << " = " << name;
        }
    }
}

TEST(JobFields, RangesRefuseOnePastEachBound)
{
    const JobField &cores = *findKey("cores");
    EXPECT_THROW(decodeText(cores.type, "cores", "0"), StackscopeError);
    EXPECT_EQ(decodeText(cores.type, "cores", "1024").count, kMaxCores);
    EXPECT_THROW(decodeText(cores.type, "cores", "1025"), StackscopeError);
    EXPECT_THROW(decodeJson(cores.type, "cores", obs::parseJson("1025")),
                 StackscopeError);
    const JobField &instrs = *findKey("instrs");
    EXPECT_THROW(decodeJson(instrs.type, "instrs", obs::parseJson("0")),
                 StackscopeError);
    EXPECT_THROW(decodeJson(instrs.type, "instrs",
                            obs::parseJson("9007199254740994")),
                 StackscopeError);
}

}  // namespace
}  // namespace stackscope::runner
