// Seeded mutation fuzzing of the decoders that read untrusted bytes: model
// files, AMCS frame reassembly, the RunSpec, JobInfo, ArtifactInfo, outcome
// and archive encodings, artifact manifests (.mf bodies) and experience
// records (store and segment frames). Valid encodings are mutated by bit flips,
// truncations, length fields inflated toward 2^32 and splices of two
// inputs. The property: a decoder refuses its input with a typed error, or
// accepts it and re-encoding reproduces exactly the bytes it consumed. It
// never crashes, throws, or sizes an allocation from a length the input
// does not back; under ASan any single allocation over 64 MiB is a
// reported error. Seeds and iteration counts are fixed, so every run
// feeds the same inputs.
#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "artifact/manifest.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "core/run_spec.h"
#include "gtest/gtest.h"
#include "nn/lowrank.h"
#include "nn/residual.h"
#include "nn/serialize.h"
#include "search/report.h"
#include "search/searcher.h"
#include "server/protocol.h"
#include "store/experience_store.h"

#if defined(__SANITIZE_ADDRESS__)
extern "C" const char* __asan_default_options() {
  return "max_allocation_size_mb=64";
}
#endif

namespace automc {
namespace {

using server::FrameDecoder;
using server::MsgType;

constexpr int kIterations = 20000;  // mutants per decoder

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  // One to three stacked mutations of `input`; splices draw their second
  // input from `corpus`.
  std::string Mutate(const std::string& input,
                     const std::vector<std::string>& corpus) {
    std::string out = input;
    for (int64_t n = 1 + rng_.UniformInt(3); n > 0; --n) {
      out = MutateOnce(std::move(out), corpus);
    }
    return out;
  }

 private:
  size_t Below(size_t n) {
    return static_cast<size_t>(rng_.UniformInt(static_cast<int64_t>(n)));
  }

  std::string MutateOnce(std::string s,
                         const std::vector<std::string>& corpus) {
    switch (rng_.UniformInt(4)) {
      case 0:  // flip one to four bits
        for (int64_t n = 1 + rng_.UniformInt(4); n > 0 && !s.empty(); --n) {
          s[Below(s.size())] ^= static_cast<char>(1 << rng_.UniformInt(8));
        }
        return s;
      case 1:  // truncate
        s.resize(Below(s.size() + 1));
        return s;
      case 2: {  // inflate a small u32, the likely count or length, to 2^24+
        std::vector<size_t> small;
        for (size_t i = 0; i + 4 <= s.size(); ++i) {
          uint32_t v = 0;
          std::memcpy(&v, s.data() + i, 4);
          if (v > 0 && v < 4096) small.push_back(i);
        }
        if (small.empty()) return s;
        const uint32_t inflated = 0xffffffffu >> rng_.UniformInt(8);
        std::memcpy(s.data() + small[Below(small.size())], &inflated, 4);
        return s;
      }
      default: {  // a prefix of this input, then a suffix of another
        const std::string& other = corpus[Below(corpus.size())];
        return s.substr(0, Below(s.size() + 1)) +
               other.substr(Below(other.size() + 1));
      }
    }
  }

  Rng rng_;
};

// Checks `seed_inputs`, then kIterations mutants of them. `check` returns
// whether the decoder accepted its input and records any property failure;
// the mutants must draw both outcomes, or the run proves nothing.
void Fuzz(uint64_t seed, const std::vector<std::string>& seed_inputs,
          const std::function<bool(const std::string&)>& check) {
  for (const std::string& input : seed_inputs) {
    ASSERT_TRUE(check(input)) << "a valid encoding was refused";
  }
  Mutator mutator(seed);
  int accepted = 0;
  for (int i = 0; i < kIterations && !::testing::Test::HasFailure(); ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    const std::string& input = seed_inputs[i % seed_inputs.size()];
    accepted += check(mutator.Mutate(input, seed_inputs)) ? 1 : 0;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kIterations);
}

// For decoders over a ByteReader that return false to refuse: an accepted
// input must re-encode, through `encode`, to exactly the bytes consumed.
bool RefusedOrExact(const std::string& bytes,
                    const std::function<bool(ByteReader*)>& decode,
                    const std::function<void(ByteWriter*)>& encode) {
  ByteReader r(bytes);
  if (!decode(&r)) return false;
  ByteWriter w;
  encode(&w);
  EXPECT_EQ(w.str(), bytes.substr(0, bytes.size() - r.remaining()));
  return true;
}

bool CheckModel(const std::string& bytes) {
  auto model = nn::DeserializeModel(bytes);
  if (!model.ok()) {
    const StatusCode code = model.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange)
        << model.status().ToString();
    return false;
  }
  std::stringstream again;
  EXPECT_TRUE(nn::SerializeModel(model->get(), &again).ok());
  EXPECT_TRUE(again.str() == bytes) << "accepted model re-encodes differently";
  return true;
}

bool CheckRunSpec(const std::string& bytes) {
  core::RunSpec spec;
  return RefusedOrExact(
      bytes, [&](ByteReader* r) { return core::DecodeRunSpec(r, &spec); },
      [&](ByteWriter* w) { core::EncodeRunSpec(spec, w); });
}

bool CheckJobInfo(const std::string& bytes) {
  server::JobInfo info;
  return RefusedOrExact(
      bytes, [&](ByteReader* r) { return server::DecodeJobInfo(r, &info); },
      [&](ByteWriter* w) { server::EncodeJobInfo(info, w); });
}

bool CheckArtifactInfo(const std::string& bytes) {
  server::ArtifactInfo info;
  return RefusedOrExact(
      bytes,
      [&](ByteReader* r) { return server::DecodeArtifactInfo(r, &info); },
      [&](ByteWriter* w) { server::EncodeArtifactInfo(info, w); });
}

bool CheckOutcome(const std::string& bytes) {
  auto outcome = search::LoadOutcomeBytes(bytes);
  if (!outcome.ok()) {
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
    return false;
  }
  EXPECT_EQ(search::SaveOutcomeBytes(*outcome), bytes);
  return true;
}

bool CheckArchive(const std::string& bytes) {
  search::Archive archive(0.3);
  return RefusedOrExact(
      bytes, [&](ByteReader* r) { return archive.Restore(r); },
      [&](ByteWriter* w) { archive.Snapshot(w); });
}

bool CheckManifest(const std::string& bytes) {
  auto manifest = artifact::DecodeManifest(bytes);
  if (!manifest.ok()) {
    EXPECT_EQ(manifest.status().code(), StatusCode::kDataLoss)
        << manifest.status().ToString();
    return false;
  }
  EXPECT_EQ(artifact::EncodeManifest(*manifest), bytes);
  return true;
}

bool CheckExperienceRecord(const std::string& bytes) {
  store::Fingerprint fp;
  store::EvalRecord rec;
  if (!store::DecodeExperiencePayload(bytes, &fp, &rec)) return false;
  EXPECT_EQ(store::EncodeExperiencePayload(fp, rec), bytes);
  return true;
}

// ---- seed encodings --------------------------------------------------------

// A small model holding every layer kind of the format: a biased conv,
// batchnorm, LMA, a basic block (absent members, identity shortcut), a
// bottleneck block with a conv shortcut, LowRankConv, ReLU, max-pool,
// global pool, flatten and linear, at 8-bit weights.
std::string ModelWithEveryLayer() {
  Rng rng(5);
  auto net = std::make_unique<nn::Sequential>();
  net->Add(std::make_unique<nn::Conv2d>(3, 2, 3, 1, 1, true, &rng));
  net->Add(std::make_unique<nn::BatchNorm2d>(2));
  net->Add(std::make_unique<nn::LMAActivation>(3, 1.5f));
  net->Add(std::make_unique<nn::ResidualBlock>(
      nn::ResidualBlock::Kind::kBasic, 2, 2, 1, &rng));
  net->Add(std::make_unique<nn::ResidualBlock>(
      nn::ResidualBlock::Kind::kBottleneck, 2, 1, 2, &rng));
  std::vector<std::unique_ptr<nn::Conv2d>> stages;
  stages.push_back(std::make_unique<nn::Conv2d>(4, 1, 1, 1, 0, false, &rng));
  stages.push_back(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, false, &rng));
  net->Add(std::make_unique<nn::LowRankConv>(std::move(stages)));
  net->Add(std::make_unique<nn::ReLU>());
  net->Add(std::make_unique<nn::MaxPool2d>(2, 2));
  net->Add(std::make_unique<nn::GlobalAvgPool>());
  net->Add(std::make_unique<nn::Flatten>());
  net->Add(std::make_unique<nn::Linear>(4, 3, &rng));
  nn::ModelSpec spec;
  spec.family = "fuzz";
  spec.num_classes = 3;
  spec.base_width = 2;
  nn::Model model(spec, std::move(net));
  model.set_weight_bits(8);
  std::stringstream out;
  AUTOMC_CHECK(nn::SerializeModel(&model, &out).ok());
  return out.str();
}

std::string ZooModel() {
  nn::ModelSpec spec;
  spec.family = "resnet";
  spec.depth = 20;
  spec.num_classes = 3;
  spec.base_width = 1;
  Rng rng(7);
  auto model = nn::BuildModel(spec, &rng);
  AUTOMC_CHECK(model.ok());
  std::stringstream out;
  AUTOMC_CHECK(nn::SerializeModel(model->get(), &out).ok());
  return out.str();
}

std::vector<std::string> RunSpecs() {
  core::RunSpec tiny;
  tiny.family = "vgg";
  tiny.depth = 13;
  tiny.dataset = "tiny";
  tiny.searcher = "random";
  tiny.budget = 4;
  tiny.seed = 11;
  std::vector<std::string> out;
  for (const core::RunSpec& spec : {core::RunSpec{}, tiny}) {
    ByteWriter w;
    core::EncodeRunSpec(spec, &w);
    out.push_back(w.Take());
  }
  return out;
}

std::vector<std::string> JobInfos() {
  const server::JobInfo infos[] = {
      {7, server::JobState::kRunning, "automc vgg-13 c10", "", -1},
      {uint64_t{1} << 40, server::JobState::kFailed, "random", "boom", 12}};
  std::vector<std::string> out;
  for (const server::JobInfo& info : infos) {
    ByteWriter w;
    server::EncodeJobInfo(info, &w);
    out.push_back(w.Take());
  }
  return out;
}

std::vector<std::string> ArtifactInfos() {
  server::ArtifactInfo info;
  info.name = "job-7";
  info.total_size = 123456;
  for (size_t i = 0; i < info.blob_digest.size(); ++i) {
    info.blob_digest[i] = static_cast<uint8_t>(i * 7);
  }
  info.chunk_count = 3;
  info.job_id = 7;
  info.scheme = "1,2";
  info.summary = "automc vgg-13 c10";
  info.acc = 0.75;
  info.params = 1000;
  info.flops = 20000;
  ByteWriter w;
  server::EncodeArtifactInfo(info, &w);
  return {w.Take()};
}

std::vector<std::string> Outcomes() {
  search::SearchOutcome outcome;
  outcome.pareto_schemes = {{1, 2}, {3}};
  outcome.pareto_points = {{0.8, 100, 2000, 0.01, 0.4, 0.3},
                           {0.7, 60, 1500, -0.1, 0.6, 0.5}};
  outcome.history = {{1, 0.5, 0.6}, {3, 0.8, 0.8}};
  outcome.executions = 3;
  return {search::SaveOutcomeBytes(outcome),
          search::SaveOutcomeBytes(search::SearchOutcome{})};
}

std::vector<std::string> Archives() {
  search::Archive archive(0.3);
  archive.Record({1, 2}, {0.8, 100, 2000, 0.01, 0.4, 0.3}, 1);
  archive.Record({3}, {0.7, 60, 1500, -0.1, 0.2, 0.5}, 2);
  ByteWriter full;
  archive.Snapshot(&full);
  ByteWriter empty;
  search::Archive(0.3).Snapshot(&empty);
  return {full.Take(), empty.Take()};
}

std::vector<std::string> Manifests() {
  artifact::Manifest full;
  full.name = "job-7.v2_final";
  full.total_size = 3 * 4096 + 17;
  for (int c = 0; c < 4; ++c) {
    Sha256Digest digest{};
    for (size_t i = 0; i < digest.size(); ++i) {
      digest[i] = static_cast<uint8_t>(c * 31 + i);
    }
    full.chunks.push_back(digest);
  }
  full.blob_digest = full.chunks[1];
  full.prov = {7, "2,7,1", "server job", 0.625, 4321, 98765};
  artifact::Manifest bare;
  bare.name = "m";
  return {artifact::EncodeManifest(full), artifact::EncodeManifest(bare)};
}

std::vector<std::string> ExperienceRecords() {
  store::EvalRecord rec;
  rec.scheme = {3, 14, 15};
  rec.acc = 0.5;
  rec.params = 1000;
  rec.flops = 50000;
  rec.ar = -0.01;
  rec.pr = 0.2;
  rec.fr = 0.3;
  rec.task_features = {1.0f, 2.0f, 0.5f, 4.0f, 8.0f, 16.0f, 0.25f};
  return {store::EncodeExperiencePayload({11, 22}, rec),
          store::EncodeExperiencePayload({0, 1}, store::EvalRecord{})};
}

// ---- the model and payload decoders -----------------------------------------

TEST(DecoderFuzzTest, ModelFiles) {
  Fuzz(101, {ModelWithEveryLayer(), ZooModel()}, CheckModel);
}

TEST(DecoderFuzzTest, RunSpec) { Fuzz(102, RunSpecs(), CheckRunSpec); }

TEST(DecoderFuzzTest, JobInfo) { Fuzz(103, JobInfos(), CheckJobInfo); }

TEST(DecoderFuzzTest, ArtifactInfo) {
  Fuzz(104, ArtifactInfos(), CheckArtifactInfo);
}

TEST(DecoderFuzzTest, OutcomeBytes) { Fuzz(105, Outcomes(), CheckOutcome); }

TEST(DecoderFuzzTest, ArchiveSnapshots) {
  Fuzz(106, Archives(), CheckArchive);
}

TEST(DecoderFuzzTest, ArtifactManifests) {
  Fuzz(109, Manifests(), CheckManifest);
}

TEST(DecoderFuzzTest, ExperienceRecords) {
  Fuzz(110, ExperienceRecords(), CheckExperienceRecord);
}

// ---- AMCS frames ------------------------------------------------------------

// Rewrites the CRC of every frame FrameDecoder will find in `stream`, so a
// mutated header or payload reaches the checks behind the CRC.
void RecomputeCrcs(std::string* stream) {
  for (size_t pos = 0; stream->size() - pos >= 12;) {
    uint32_t header[3];  // magic, type, payload size
    std::memcpy(header, stream->data() + pos, sizeof(header));
    if (header[0] != server::kFrameMagic ||
        header[2] > server::kMaxFramePayload ||
        stream->size() - pos - 12 < uint64_t{header[2]} + 4) {
      return;
    }
    uint32_t crc = Crc32(&header[1], 4);
    crc = Crc32(&header[2], 4, crc);
    crc = Crc32(stream->data() + pos + 12, header[2], crc);
    std::memcpy(stream->data() + pos + 12 + header[2], &crc, 4);
    pos += 12 + header[2] + 4;
  }
}

// Every frame FrameDecoder yields on `bytes` fed `step` bytes at a time,
// and the state it ends in.
struct Decoded {
  std::vector<server::Frame> frames;
  FrameDecoder::Event last = FrameDecoder::Event::kNeedMore;
  Status error;
};

Decoded DecodeFrames(const std::string& bytes, size_t step) {
  FrameDecoder decoder;
  Decoded out;
  for (size_t pos = 0; pos < bytes.size(); pos += step) {
    decoder.Feed(bytes.data() + pos, std::min(step, bytes.size() - pos));
    server::Frame frame;
    while ((out.last = decoder.Next(&frame, &out.error)) ==
           FrameDecoder::Event::kFrame) {
      out.frames.push_back(std::move(frame));
    }
    if (out.last == FrameDecoder::Event::kError) break;
  }
  return out;
}

// Whole and byte-at-a-time decoding must agree; the frames must re-encode
// to a prefix of the input; and each payload goes to its body decoder.
bool CheckFrames(const std::string& bytes) {
  const Decoded whole = DecodeFrames(bytes, std::max<size_t>(bytes.size(), 1));
  const Decoded dribbled = DecodeFrames(bytes, 1);
  EXPECT_EQ(whole.last, dribbled.last);
  EXPECT_EQ(whole.error.code(), dribbled.error.code());
  EXPECT_EQ(whole.error.message(), dribbled.error.message());
  EXPECT_EQ(whole.frames.size(), dribbled.frames.size());
  std::string reencoded;
  for (size_t i = 0; i < whole.frames.size(); ++i) {
    const server::Frame& frame = whole.frames[i];
    if (i < dribbled.frames.size()) {
      EXPECT_EQ(frame.type, dribbled.frames[i].type);
      EXPECT_EQ(frame.payload, dribbled.frames[i].payload);
    }
    reencoded += server::EncodeFrame(static_cast<MsgType>(frame.type),
                                     frame.payload);
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::kSubmitJob:
        CheckRunSpec(frame.payload);
        break;
      case MsgType::kStatus:
        CheckJobInfo(frame.payload);
        break;
      case MsgType::kModelStart:
        CheckArtifactInfo(frame.payload);
        break;
      case MsgType::kOutcome:
        CheckOutcome(frame.payload);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(bytes.compare(0, reencoded.size(), reencoded), 0)
      << "decoded frames do not re-encode to the input";
  if (whole.last == FrameDecoder::Event::kError) {
    EXPECT_EQ(whole.error.code(), StatusCode::kInvalidArgument);
    return false;
  }
  return true;
}

TEST(DecoderFuzzTest, FramesWholeAndByteAtATime) {
  std::string stream = server::EncodeFrame(MsgType::kSubmitJob, RunSpecs()[1]);
  stream += server::EncodeFrame(MsgType::kStatus, JobInfos()[0]);
  stream += server::EncodeFrame(MsgType::kModelStart, ArtifactInfos()[0]);
  stream += server::EncodeFrame(MsgType::kOutcome, Outcomes()[0]);
  stream += server::EncodeFrame(MsgType::kListJobs, "");
  const std::vector<std::string> streams = {
      stream, server::EncodeFrame(MsgType::kStatus, JobInfos()[1])};
  // Half the mutants keep a raw CRC, which mostly stops FrameDecoder; the
  // other half carry recomputed CRCs, so payloads reach the body decoders.
  int round = 0;
  Fuzz(107, streams, [&](const std::string& bytes) {
    if (round++ % 2 == 0) return CheckFrames(bytes);
    std::string fixed = bytes;
    RecomputeCrcs(&fixed);
    return CheckFrames(fixed);
  });
}

}  // namespace
}  // namespace automc
