// Tests for the job manifest text format (src/flow/job_io): tokens and
// manifests round-trip exactly, and a malformed manifest file names its
// path and the line of the defect.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "flow/experiment.hpp"
#include "flow/job_io.hpp"

namespace hlp {
namespace {

flow::Job small_job(const std::string& benchmark) {
  flow::Job j;
  j.benchmark = benchmark;
  j.width = 4;
  j.num_vectors = 40;
  return j;
}

TEST(JobIo, TokenRoundTrip) {
  const std::string nasty = "a b\tc\nd%e=f\x01g";
  const std::string enc = flow::encode_token(nasty);
  EXPECT_EQ(enc.find(' '), std::string::npos);
  EXPECT_EQ(enc.find('\n'), std::string::npos);
  EXPECT_EQ(flow::decode_token(enc), nasty);
  EXPECT_EQ(flow::decode_token(flow::encode_token("")), "");
  EXPECT_THROW(flow::decode_token("bad%2"), Error);
  EXPECT_THROW(flow::decode_token("bad%zz"), Error);
}

TEST(JobIo, ManifestRoundTripIsExact) {
  std::vector<flow::ManifestJob> jobs;
  flow::ManifestJob a;
  a.index = 12;
  a.job = small_job("pr");
  a.job.scheduler = "fds";
  a.job.binder = {"hlpower", 0.1, 0.375, -1.0, true};
  a.job.rc = {3, 2};
  a.job.seed = 0xdeadbeefcafe1234ull;
  a.job.reg_seed = 99;
  a.job.sched_spec = {5, 3};
  a.job.sim_engine = SimEngine::kScalar;
  a.job.simd = SimdMode::kX4;
  a.job.sa = SaMode::kExact;
  a.job.label = "label with spaces & %";
  jobs.push_back(a);
  flow::ManifestJob b;  // all defaults
  b.index = 0;
  jobs.push_back(b);

  std::ostringstream text;
  flow::save_manifest(text, jobs);
  std::istringstream in(text.str());
  const auto back = flow::load_manifest(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].index, 12u);
  const flow::Job& j = back[0].job;
  EXPECT_EQ(j.benchmark, "pr");
  EXPECT_EQ(j.scheduler, "fds");
  EXPECT_EQ(j.binder.name, "hlpower");
  EXPECT_EQ(j.binder.alpha, 0.1);  // bit-exact, not just approximate
  EXPECT_EQ(j.binder.beta_add, 0.375);
  EXPECT_EQ(j.binder.beta_mult, -1.0);
  EXPECT_TRUE(j.binder.refine);
  EXPECT_EQ(j.rc.adders, 3);
  EXPECT_EQ(j.rc.multipliers, 2);
  EXPECT_EQ(j.seed, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(j.reg_seed, 99u);
  EXPECT_EQ(j.sched_spec.min_latency, 5);
  EXPECT_EQ(j.sched_spec.latency_slack, 3);
  EXPECT_EQ(j.sim_engine, SimEngine::kScalar);
  EXPECT_EQ(j.simd, SimdMode::kX4);
  ASSERT_TRUE(j.sa.has_value());
  EXPECT_EQ(*j.sa, SaMode::kExact);
  EXPECT_EQ(j.label, "label with spaces & %");
  EXPECT_EQ(back[1].job.benchmark, flow::Job{}.benchmark);
  // The SA mode is serialised RESOLVED: a job that deferred to HLP_SA_MODE
  // is written as a concrete mode, so a reader with a different
  // environment (hlp_store gc deriving store addresses) still keys the
  // job under the writer's backend.
  ASSERT_TRUE(back[1].job.sa.has_value());
  EXPECT_EQ(*back[1].job.sa, effective_sa_mode(std::nullopt));
}

TEST(JobIo, ManifestFileErrorsNameTheFileAndLine) {
  flow::ManifestJob a;
  a.index = 3;
  a.job = small_job("pr");
  std::ostringstream text;
  flow::save_manifest(text, {a, a});
  // Line 1 is the header, 2 the count, 3 and 4 the jobs, 5 the footer.
  const std::string good = text.str();
  const std::size_t job2 = good.find("job ", good.find("job ") + 1);
  std::string not_key_value = good;
  not_key_value.insert(good.find('\n', good.find("job ")), " bogus");
  std::string missing_field = good;
  const std::size_t width = good.find(" width=", job2);
  missing_field.erase(width, good.find(' ', width + 1) - width);
  struct Case {
    std::string body;
    std::string line;
    std::string defect;
  };
  const std::vector<Case> cases = {
      {not_key_value, "line 3", "field 'bogus' is not key=value"},
      {missing_field, "line 4", "missing field 'width'"},
      {good.substr(0, good.rfind("end ")), "line 4", "truncated"},
  };
  const std::string path = ::testing::TempDir() + "/bad.manifest";
  for (const Case& c : cases) {
    std::ofstream(path) << c.body;
    try {
      flow::load_manifest_file(path);
      ADD_FAILURE() << "expected a throw for: " << c.defect;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(path + ": " + c.line + ": ", 0), 0u) << what;
      EXPECT_NE(what.find(c.defect), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace hlp
