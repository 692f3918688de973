// Deterministic fuzz + property harness for the HDSL session-log reader and the
// DetectorCore's SPI-stream contract.
//
// Fuzz half: structure-aware mutations (src/faultsim/hdsl_mutator.h) of the committed
// mini-corpus (tests/corpus/, integrity-pinned by MANIFEST.sha256). Every mutant either
// parses — in which case replaying it must not crash — or is rejected with a sticky,
// non-empty error. The HDSC archive reader and the fleetd result decoder get blind
// byte-level mutants (bit flip, byte overwrite, truncation) under the same rule. Run under
// ASan/UBSan in CI; "no crash" there means no overflow, no uninitialized read, no unbounded
// allocation.
//
// Property half: randomly generated *valid* SPI streams (src/faultsim/stream_gen.h) must
// drive only legal Figure 3 action-state transitions with monotone overhead accounting;
// streams with one spliced contract violation must be dropped-and-counted or sticky-failed,
// never crash.
//
// Everything is seeded: HANGDOCTOR_FUZZ_SEED (default 1) picks the master seed and
// HANGDOCTOR_FUZZ_ITERS (default 2000) the mutation budget, so a CI failure reproduces
// locally by exporting the same pair.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>

#include "src/faultsim/hdsl_mutator.h"
#include "src/faultsim/stream_gen.h"
#include "src/hangdoctor/detector_core.h"
#include "src/hangdoctor/knowledge_base.h"
#include "src/hosts/compact_log.h"
#include "src/hosts/mux_log.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/netd/client.h"
#include "src/netd/record_codec.h"
#include "src/netd/result_codec.h"
#include "src/netd/server.h"
#include "src/netd/wire.h"
#include "src/simkit/rng.h"

namespace {

#ifndef HD_CORPUS_DIR
#error "HD_CORPUS_DIR must be defined by the build"
#endif

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return std::atoll(value);
}

uint64_t FuzzSeed() { return static_cast<uint64_t>(EnvInt("HANGDOCTOR_FUZZ_SEED", 1)); }
int64_t FuzzIters() { return EnvInt("HANGDOCTOR_FUZZ_ITERS", 2000); }

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(HD_CORPUS_DIR)) {
    if (entry.path().extension() == ".hdsl") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The async mutation families target HDSL v4's async tag range without depending on the
// hosts library; pin the mirrored integers to the real enum here.
static_assert(faultsim::kFirstAsyncTag ==
              static_cast<int>(hangdoctor::SessionRecordTag::kAsyncPost));
static_assert(faultsim::kLastAsyncTag ==
              static_cast<int>(hangdoctor::SessionRecordTag::kAsyncWaitEnd));

TEST(HdslCorpusTest, EveryCorpusFileParsesAndReplays) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_EQ(files.size(), 5u) << "corpus drifted from tools/make_corpus";
  bool saw_counter_fault = false;
  bool saw_async = false;
  for (const std::string& path : files) {
    std::string bytes = FileBytes(path);
    ASSERT_FALSE(bytes.empty()) << path;
    hangdoctor::SessionLog log;
    std::string error;
    ASSERT_TRUE(hangdoctor::LoadSessionLogBytes(bytes, &log, &error)) << path << ": " << error;
    EXPECT_FALSE(log.records.empty()) << path;
    for (const hangdoctor::SessionRecord& record : log.records) {
      if (record.tag == hangdoctor::SessionRecordTag::kCounterFault) {
        saw_counter_fault = true;
      }
      if (record.tag == hangdoctor::SessionRecordTag::kAsyncPost) {
        saw_async = true;
      }
    }
    hangdoctor::ReplaySession session(std::move(log));
    session.Run();
    EXPECT_FALSE(session.core().log().empty()) << path;

    hangdoctor::SessionLogLayout layout;
    ASSERT_TRUE(hangdoctor::ScanSessionLog(bytes, &layout, &error)) << path << ": " << error;
    EXPECT_GT(layout.header_end, 0u) << path;
    EXPECT_GT(layout.record_offsets.size(), 2u) << path;
  }
  EXPECT_TRUE(saw_counter_fault)
      << "the corpus must exercise the kCounterFault grammar (see faulty.hdsl)";
  EXPECT_TRUE(saw_async)
      << "the corpus must exercise the async-record grammar (see async_session.hdsl)";
}

TEST(HdslFuzzTest, SeededMutantsNeverCrashAndFailuresAreSticky) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  const int64_t iters = FuzzIters();
  simkit::Rng rng(FuzzSeed(), /*stream=*/0x68647a66ULL);

  // Pre-scan every corpus file once; mutants derive from the original layout.
  std::vector<std::pair<std::string, hangdoctor::SessionLogLayout>> corpus;
  for (const std::string& path : files) {
    std::string bytes = FileBytes(path);
    hangdoctor::SessionLogLayout layout;
    std::string error;
    ASSERT_TRUE(hangdoctor::ScanSessionLog(bytes, &layout, &error)) << path << ": " << error;
    corpus.emplace_back(std::move(bytes), std::move(layout));
  }

  std::map<std::string, int64_t> by_family;
  int64_t parsed = 0;
  int64_t rejected = 0;
  for (int64_t i = 0; i < iters; ++i) {
    const auto& [bytes, layout] =
        corpus[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
    faultsim::HdslMutation applied;
    std::string mutant = faultsim::MutateSessionLog(bytes, layout.header_end,
                                                    layout.record_offsets, rng, &applied);
    ++by_family[faultsim::HdslMutationName(applied)];

    hangdoctor::SessionLog log;
    std::string error;
    if (hangdoctor::LoadSessionLogBytes(mutant, &log, &error)) {
      // Some mutations land in don't-care bytes (string contents, counter values) or
      // produce a different-but-legal log; replaying it must still be safe.
      ++parsed;
      hangdoctor::ReplaySession session(std::move(log));
      session.Run();
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "iter " << i << " family "
                                  << faultsim::HdslMutationName(applied);
    }
  }
  // The mutator must actually bite: most mutants of a compact binary format are invalid.
  EXPECT_GT(rejected, parsed / 4) << "mutations are too gentle to test the parser";
  EXPECT_EQ(parsed + rejected, iters);
  // Uniform family choice at any realistic budget covers every family.
  if (iters >= 500) {
    EXPECT_EQ(by_family.size(), static_cast<size_t>(faultsim::kNumHdslMutations));
  }
}

TEST(HdslFuzzTest, TruncationAtEveryRecordBoundaryIsRejected) {
  for (const std::string& path : CorpusFiles()) {
    std::string bytes = FileBytes(path);
    hangdoctor::SessionLogLayout layout;
    std::string error;
    ASSERT_TRUE(hangdoctor::ScanSessionLog(bytes, &layout, &error)) << path;
    std::vector<size_t> cuts = layout.record_offsets;
    cuts.push_back(layout.header_end);
    cuts.push_back(0);
    cuts.push_back(bytes.size() - 1);
    for (size_t cut : cuts) {
      if (cut >= bytes.size()) {
        continue;  // cutting nothing is the intact log
      }
      hangdoctor::SessionLog log;
      error.clear();
      EXPECT_FALSE(hangdoctor::LoadSessionLogBytes(bytes.substr(0, cut), &log, &error))
          << path << " cut at " << cut;
      EXPECT_FALSE(error.empty()) << path << " cut at " << cut;
    }
  }
}

// Differential: the cached open-prefix parse (the daemon's path, src/hosts/session_log.h
// SymbolTableCache) against the uncached reference parse. The cache is pre-warmed with every
// clean corpus prefix, the adversarial case: a mutant that still carries a clean symbol-table
// section must hit it, and every other mutant must parse exactly as the reference does.
// Mutants come from the bare prefixes and from each prefix followed by its first record
// (trailing bytes the open grammar must reject). Either way both parses must agree on the
// verdict and the error string and, on success, on every frame of the table.
TEST(HdslFuzzTest, CachedPrefixParseMatchesTheUncachedParseOnEveryMutant) {
  struct Base {
    std::string prefix;       // header + symbol table
    std::string with_record;  // ... + the first record
    size_t header_end = 0;
  };
  std::vector<Base> bases;
  hangdoctor::SymbolTableCache cache;
  std::vector<hangdoctor::SessionLog> warm;
  for (const std::string& path : CorpusFiles()) {
    std::string bytes = FileBytes(path);
    hangdoctor::SessionLogLayout layout;
    std::string error;
    ASSERT_TRUE(hangdoctor::ScanSessionLog(bytes, &layout, &error)) << path << ": " << error;
    ASSERT_GE(layout.record_offsets.size(), 2u) << path;
    bases.push_back({bytes.substr(0, layout.header_end),
                     bytes.substr(0, layout.record_offsets[1]), layout.header_end});
    warm.emplace_back();
    ASSERT_TRUE(hangdoctor::ParseSessionLogPrefix(bases.back().prefix, cache, &warm.back(),
                                                  &error))
        << path << ": " << error;
  }
  ASSERT_FALSE(bases.empty());

  auto expect_same_table = [](const telemetry::SymbolTable& got,
                              const telemetry::SymbolTable& want, const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    EXPECT_EQ(got.content_hash(), want.content_hash()) << label;
    for (telemetry::FrameId id = 0; id < want.size(); ++id) {
      const telemetry::StackFrame& a = got.Frame(id);
      const telemetry::StackFrame& b = want.Frame(id);
      EXPECT_TRUE(a == b && a.in_closed_library == b.in_closed_library)
          << label << " frame " << id;
      EXPECT_EQ(got.IsUi(id), want.IsUi(id)) << label << " frame " << id;
      EXPECT_EQ(got.IsSelfDeveloped(id), want.IsSelfDeveloped(id)) << label << " frame " << id;
    }
  };

  const int64_t iters = FuzzIters();
  simkit::Rng rng(FuzzSeed(), /*stream=*/0x73796d63ULL);
  int64_t hits = 0;
  int64_t parsed = 0;
  int64_t rejected = 0;
  for (int64_t i = 0; i < iters; ++i) {
    const Base& base =
        bases[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bases.size()) - 1))];
    faultsim::HdslMutation applied;
    std::string mutant;
    if (i % 2 == 0) {
      mutant = faultsim::MutateSessionLog(base.prefix, base.prefix.size(), {}, rng, &applied);
    } else {
      const size_t first_record[] = {base.header_end};
      mutant = faultsim::MutateSessionLog(base.with_record, base.header_end, first_record, rng,
                                          &applied);
    }
    const std::string label =
        "iter " + std::to_string(i) + " family " + faultsim::HdslMutationName(applied);

    hangdoctor::SessionLog cached;
    hangdoctor::SessionLog reference;
    std::string cached_error;
    std::string reference_error;
    bool shared = false;
    const bool cached_ok =
        hangdoctor::ParseSessionLogPrefix(mutant, cache, &cached, &cached_error, &shared);
    const bool reference_ok =
        hangdoctor::ParseSessionLogPrefix(mutant, &reference, &reference_error);
    ASSERT_EQ(cached_ok, reference_ok) << label << ": " << cached_error << " | "
                                       << reference_error;
    EXPECT_EQ(cached_error, reference_error) << label;
    if (!reference_ok) {
      ++rejected;
      EXPECT_FALSE(shared) << label;
      continue;
    }
    ++parsed;
    hits += shared ? 1 : 0;
    EXPECT_EQ(cached.info.symbols, cached.symbols.get()) << label;
    EXPECT_EQ(cached.info.app_package, reference.info.app_package) << label;
    expect_same_table(*cached.symbols, *reference.symbols, label);
  }
  EXPECT_EQ(parsed + rejected, iters);
  // Both sides of the lookup must be exercised: mutants that keep a clean table (hits) and
  // mutants that parse to a different table or not at all (misses).
  EXPECT_GT(hits, 0);
  EXPECT_GT(parsed, hits);
  EXPECT_GT(rejected, 0);
  for (size_t j = 0; j < bases.size(); ++j) {
    hangdoctor::SessionLog reference;
    std::string error;
    ASSERT_TRUE(hangdoctor::ParseSessionLogPrefix(bases[j].prefix, &reference, &error));
    expect_same_table(*warm[j].symbols, *reference.symbols, "warm table " + std::to_string(j));
  }
}

std::string MuxCorpusPath() { return std::string(HD_CORPUS_DIR) + "/fleet_kb.hdsl3"; }

TEST(HdslMuxCorpusTest, MuxEntryDemuxesToTheSessionCorpusAndReplaysWithAndWithoutKb) {
  std::string bytes = FileBytes(MuxCorpusPath());
  ASSERT_FALSE(bytes.empty()) << "corpus drifted from tools/make_corpus";

  // The container is framing only: demux reproduces each committed session log
  // byte-identically.
  std::vector<hangdoctor::SessionLogSlice> slices;
  std::string error;
  ASSERT_TRUE(hangdoctor::DemuxSessionLog(bytes, &slices, &error)) << error;
  std::vector<std::string> files = CorpusFiles();
  ASSERT_EQ(slices.size(), files.size());
  std::multiset<std::string> originals;
  for (const std::string& path : files) {
    originals.insert(FileBytes(path));
  }
  for (const hangdoctor::SessionLogSlice& slice : slices) {
    auto it = originals.find(slice.bytes);
    ASSERT_NE(it, originals.end())
        << "session " << slice.id.value << " demuxed to bytes not in the corpus";
    originals.erase(it);
  }

  // The embedded epoch-publish frames drive a shared KB when one is attached; either way
  // the replayed results are bit-identical, because published snapshots are advisory.
  std::vector<hangdoctor::SessionResult> without;
  ASSERT_TRUE(hangdoctor::ReplayMultiplexedLog(bytes, {}, &without, &error)) << error;
  hangdoctor::KnowledgeBase kb;
  hangdoctor::ServiceOptions with_kb;
  with_kb.knowledge_base = &kb;
  std::vector<hangdoctor::SessionResult> with;
  ASSERT_TRUE(hangdoctor::ReplayMultiplexedLog(bytes, with_kb, &with, &error)) << error;
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].id.value, without[i].id.value);
    EXPECT_EQ(with[i].app_package, without[i].app_package);
    EXPECT_EQ(with[i].report.Render(1), without[i].report.Render(1)) << "session " << i;
    EXPECT_EQ(with[i].discovered, without[i].discovered) << "session " << i;
    EXPECT_EQ(with[i].stack_samples, without[i].stack_samples) << "session " << i;
    EXPECT_EQ(with[i].stream_ok, without[i].stream_ok) << "session " << i;
  }
  EXPECT_EQ(kb.TotalStats().sessions_absorbed, static_cast<int64_t>(with.size()));
}

TEST(HdslMuxFuzzTest, SeededMuxMutantsNeverCrashAndFailuresAreSticky) {
  std::string bytes = FileBytes(MuxCorpusPath());
  ASSERT_FALSE(bytes.empty());
  hangdoctor::SessionLogLayout layout;
  std::string error;
  ASSERT_TRUE(hangdoctor::ScanMuxLog(bytes, &layout, &error)) << error;
  EXPECT_GT(layout.record_offsets.size(), 8u);

  // ScanMuxLog presents frame offsets exactly like session-log record offsets, so the structure-aware
  // mutator applies unchanged; every mutant must demux + replay, or be rejected with a
  // non-empty error — never crash (the CI fuzz-smoke leg runs this under ASan/UBSan).
  const int64_t iters = std::max<int64_t>(FuzzIters() / 4, 200);
  simkit::Rng rng(FuzzSeed(), /*stream=*/0x6d75786dULL);
  int64_t parsed = 0;
  int64_t rejected = 0;
  for (int64_t i = 0; i < iters; ++i) {
    faultsim::HdslMutation applied;
    std::string mutant = faultsim::MutateSessionLog(bytes, layout.header_end,
                                                    layout.record_offsets, rng, &applied);
    std::vector<hangdoctor::SessionLogSlice> slices;
    error.clear();
    if (hangdoctor::DemuxSessionLog(mutant, &slices, &error)) {
      ++parsed;
      std::vector<hangdoctor::SessionResult> results;
      std::string replay_error;
      hangdoctor::ReplayMultiplexedLog(mutant, {}, &results, &replay_error);
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "iter " << i << " family "
                                  << faultsim::HdslMutationName(applied);
    }
  }
  EXPECT_EQ(parsed + rejected, iters);
  EXPECT_GT(rejected, 0) << "mutations are too gentle to test the demuxer";
}

TEST(NetdWireFuzzTest, SeededWireMutantsParseOrStickyRejectNeverCrash) {
  // Pristine wire stream: HELLO + every frame of a container holding the session corpus —
  // the same bytes a healthy loadgen would send, with the offset of each frame's length
  // prefix recorded for the wire mutator.
  std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  std::vector<std::string> logs;
  std::vector<hangdoctor::SessionLogSlice> sessions;
  for (const std::string& path : files) {
    logs.push_back(FileBytes(path));
  }
  for (size_t i = 0; i < logs.size(); ++i) {
    sessions.push_back({telemetry::SessionId{i + 1}, logs[i]});
  }
  std::string container, error;
  ASSERT_TRUE(hangdoctor::MuxSessionLogs(sessions, {}, &container, &error)) << error;
  std::vector<std::string> frames;
  ASSERT_TRUE(netd::ContainerToWireFrames(container, &frames, &error)) << error;
  std::string stream;
  std::vector<size_t> frame_offsets;
  frame_offsets.push_back(stream.size());
  netd::AppendFrame(&stream, netd::BuildHello(4));
  for (const std::string& frame : frames) {
    frame_offsets.push_back(stream.size());
    netd::AppendFrame(&stream, frame);
  }

  // One long-lived server ingests every mutant over a fresh socketpair connection. Under
  // the CI fuzz-smoke leg this whole loop runs with ASan/UBSan watching the daemon side.
  netd::ServerOptions options;
  options.listen = false;
  options.workers = 1;
  options.rings = 1;
  options.service.shards = 2;
  netd::NetServer server(options);

  const int64_t iters = std::max<int64_t>(FuzzIters() / 20, 100);
  simkit::Rng rng(FuzzSeed(), /*stream=*/0x6e657464ULL);
  std::map<std::string, int64_t> by_family;
  int64_t sticky_rejects = 0;
  for (int64_t i = 0; i < iters; ++i) {
    faultsim::WireMutation applied;
    std::string mutant = faultsim::MutateWireStream(stream, frame_offsets, rng, &applied);
    ++by_family[faultsim::WireMutationName(applied)];

    int sv[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.AdoptConnection(sv[0]);
    netd::NetClient client;
    client.Adopt(sv[1]);
    client.SendRaw(mutant);  // a served sticky reject may close mid-write; that's the point
    client.ShutdownWrite();
    netd::Reply reply;
    while (client.ReadReply(&reply)) {
      if (reply.tag == netd::ReplyTag::kError) {
        EXPECT_FALSE(reply.message.empty()) << "iter " << i << " family "
                                            << faultsim::WireMutationName(applied);
        ++sticky_rejects;
      }
    }
    client.Close();
  }
  // Every connection either drained or aborted; nothing survives, nothing leaks.
  ASSERT_TRUE(server.WaitIdle(60000));
  EXPECT_EQ(server.live_sessions(), 0u);
  EXPECT_EQ(server.live_session_bytes(), 0);
  server.Stop();
  EXPECT_GT(sticky_rejects + server.stats().sessions_aborted.load(), 0)
      << "wire mutations are too gentle to test the daemon";
  if (iters >= 100) {
    EXPECT_EQ(by_family.size(), static_cast<size_t>(faultsim::kNumWireMutations));
  }
}

// One seeded byte-level mutant of `bytes`: a bit flip, a byte overwrite, or a truncation.
// Blind to structure on purpose — the decoders below get no layout to aim mutations with.
std::string MutateBytes(const std::string& bytes, simkit::Rng& rng) {
  std::string mutant = bytes;
  auto at = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
  switch (rng.UniformInt(0, 2)) {
    case 0:
      mutant[at] = static_cast<char>(mutant[at] ^ (1 << rng.UniformInt(0, 7)));
      break;
    case 1:
      mutant[at] = static_cast<char>(rng.UniformInt(0, 255));
      break;
    default:
      mutant.resize(at);
      break;
  }
  return mutant;
}

TEST(ByteMutantFuzzTest, CompactArchiveMutantsExtractOrRejectNeverCrash) {
  std::vector<hangdoctor::CompactInput> inputs;
  for (const std::string& path : CorpusFiles()) {
    inputs.push_back({std::filesystem::path(path).filename().string(), FileBytes(path)});
  }
  std::string archive, error;
  ASSERT_TRUE(hangdoctor::CompactSessionLogs(inputs, &archive, nullptr, &error)) << error;

  // The clean archive extracts to the inputs and re-compacts to the same bytes.
  std::vector<hangdoctor::CompactInput> extracted;
  ASSERT_TRUE(hangdoctor::ExtractCompactLog(archive, &extracted, &error)) << error;
  ASSERT_EQ(extracted.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(extracted[i].name, inputs[i].name);
    EXPECT_EQ(extracted[i].bytes, inputs[i].bytes) << inputs[i].name;
  }
  std::string recompacted;
  ASSERT_TRUE(hangdoctor::CompactSessionLogs(extracted, &recompacted, nullptr, &error)) << error;
  EXPECT_EQ(recompacted, archive);

  const int64_t iters = std::max<int64_t>(FuzzIters() / 4, 200);
  simkit::Rng rng(FuzzSeed(), /*stream=*/0x68647363ULL);
  int64_t rejected = 0;
  for (int64_t i = 0; i < iters; ++i) {
    std::string mutant = MutateBytes(archive, rng);
    std::vector<hangdoctor::CompactInput> logs;
    error.clear();
    if (hangdoctor::ExtractCompactLog(mutant, &logs, &error)) {
      // An archive that extracts hands its logs to the session-log parser, which must in
      // turn accept or reject them cleanly.
      for (const hangdoctor::CompactInput& log : logs) {
        hangdoctor::SessionLog parsed;
        std::string parse_error;
        if (!hangdoctor::LoadSessionLogBytes(log.bytes, &parsed, &parse_error)) {
          EXPECT_FALSE(parse_error.empty()) << "iter " << i;
        }
      }
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "iter " << i;
    }
  }
  EXPECT_GT(rejected, 0) << "mutations are too gentle to test the archive reader";
}

TEST(ByteMutantFuzzTest, SessionResultMutantsDecodeOrRejectNeverCrash) {
  std::vector<hangdoctor::SessionResult> results;
  std::string error;
  ASSERT_TRUE(
      hangdoctor::ReplayMultiplexedLog(FileBytes(MuxCorpusPath()), {}, &results, &error))
      << error;
  std::vector<std::string> encoded;
  size_t entries = 0;
  for (const hangdoctor::SessionResult& result : results) {
    encoded.push_back(netd::EncodeSessionResult(result));
    entries += result.report.Entries().size();
    // The clean encoding decodes and re-encodes to the same bytes.
    hangdoctor::SessionResult decoded;
    ASSERT_TRUE(netd::DecodeSessionResult(encoded.back(), &decoded, &error)) << error;
    EXPECT_EQ(netd::EncodeSessionResult(decoded), encoded.back());
  }
  ASSERT_FALSE(encoded.empty());
  ASSERT_GT(entries, 0u) << "the corpus results carry no report entries to mutate";

  const int64_t iters = std::max<int64_t>(FuzzIters() / 4, 200);
  simkit::Rng rng(FuzzSeed(), /*stream=*/0x72736c74ULL);
  int64_t rejected = 0;
  for (int64_t i = 0; i < iters; ++i) {
    const std::string& clean = encoded[static_cast<size_t>(i) % encoded.size()];
    std::string mutant = MutateBytes(clean, rng);
    hangdoctor::SessionResult decoded;
    error.clear();
    if (netd::DecodeSessionResult(mutant, &decoded, &error)) {
      netd::EncodeSessionResult(decoded);  // a decoded result is a usable result
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "iter " << i;
    }
  }
  EXPECT_GT(rejected, 0) << "mutations are too gentle to test the result decoder";
}

// Legal Figure 3 transitions under the default two-phase config (plus the degraded
// timeout-only suspicion, which still only ever marks U -> S).
bool LegalTransition(hangdoctor::ActionState from, hangdoctor::ActionState to) {
  using S = hangdoctor::ActionState;
  return (from == S::kUncategorized && to == S::kNormal) ||
         (from == S::kUncategorized && to == S::kSuspicious) ||
         (from == S::kSuspicious && to == S::kNormal) ||
         (from == S::kSuspicious && to == S::kHangBug) ||
         (from == S::kNormal && to == S::kUncategorized);
}

TEST(SpiStreamPropertyTest, ValidStreamsDriveOnlyLegalTransitionsWithMonotoneOverhead) {
  const int64_t rounds = std::max<int64_t>(FuzzIters() / 40, 25);
  simkit::Rng rng(FuzzSeed(), /*stream=*/0x73706970ULL);
  for (int64_t round = 0; round < rounds; ++round) {
    faultsim::StreamGenOptions options;
    options.num_actions = static_cast<int32_t>(rng.UniformInt(1, 6));
    options.num_executions = static_cast<int32_t>(rng.UniformInt(4, 40));
    options.counter_fault_probability = rng.Bernoulli(0.5) ? 0.15 : 0.0;
    faultsim::GeneratedStream stream = faultsim::GenerateStream(options, rng);

    hangdoctor::DetectorCore core(stream.info, hangdoctor::HangDoctorConfig{});
    int64_t last_cpu = 0;
    int64_t last_bytes = 0;
    for (faultsim::StreamEvent& event : stream.events) {
      std::vector<faultsim::StreamEvent> one;
      one.push_back(std::move(event));
      faultsim::PushStream(core, one);
      event = std::move(one.front());
      EXPECT_GE(core.overhead().cpu(), last_cpu) << "round " << round;
      EXPECT_GE(core.overhead().memory_bytes(), last_bytes) << "round " << round;
      last_cpu = core.overhead().cpu();
      last_bytes = core.overhead().memory_bytes();
    }

    ASSERT_TRUE(core.stream().ok()) << "round " << round << ": " << core.stream().error();
    EXPECT_EQ(core.degradation().dropped_records, 0) << "round " << round;
    for (const hangdoctor::StateTransition& transition : core.actions().transitions()) {
      EXPECT_TRUE(LegalTransition(transition.from, transition.to))
          << "round " << round << ": illegal "
          << hangdoctor::ActionStateName(transition.from) << " -> "
          << hangdoctor::ActionStateName(transition.to) << " (" << transition.reason << ")";
      EXPECT_GE(transition.action_uid, 0) << "round " << round;
      EXPECT_LT(transition.action_uid, options.num_actions) << "round " << round;
    }
  }
}

TEST(SpiStreamPropertyTest, CorruptStreamsAreDroppedOrStickyFailedNeverFatal) {
  const int64_t rounds = std::max<int64_t>(FuzzIters() / 40, 25);
  simkit::Rng rng(FuzzSeed(), /*stream=*/0x73706963ULL);
  std::set<std::string> corruptions_seen;
  for (int64_t round = 0; round < rounds; ++round) {
    faultsim::StreamGenOptions options;
    options.num_actions = static_cast<int32_t>(rng.UniformInt(1, 6));
    options.num_executions = static_cast<int32_t>(rng.UniformInt(4, 40));
    options.corrupt = true;
    faultsim::GeneratedStream stream = faultsim::GenerateStream(options, rng);
    ASSERT_FALSE(stream.corruption.empty()) << "round " << round;
    corruptions_seen.insert(stream.corruption);

    hangdoctor::DetectorCore core(stream.info, hangdoctor::HangDoctorConfig{});
    faultsim::PushStream(core, stream.events);
    bool noticed = core.degradation().dropped_records > 0 || !core.stream().ok();
    EXPECT_TRUE(noticed) << "round " << round << ": corruption '" << stream.corruption
                         << "' sailed through unnoticed";
    if (!core.stream().ok()) {
      EXPECT_FALSE(core.stream().error().empty()) << "round " << round;
    }
  }
  if (rounds >= 100) {
    EXPECT_GE(corruptions_seen.size(), 4u) << "corruption variety collapsed";
  }
}

}  // namespace
