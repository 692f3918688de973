#include "rungs.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "src/hangdoctor/detector_service.h"
#include "src/hosts/replay_host.h"
#include "src/hosts/session_log.h"
#include "src/netd/record_codec.h"
#include "src/netd/wire.h"

namespace ladder {

namespace hd = hangdoctor;

namespace {

void PushRecord(hd::DetectorService& service, telemetry::SessionId id, hd::SessionRecord& r) {
  switch (r.tag) {
    case hd::SessionRecordTag::kDispatchStart:
      (void)service.OnDispatchStart(id, r.start);
      break;
    case hd::SessionRecordTag::kDispatchEnd:
      r.end.samples = r.samples;
      service.OnDispatchEnd(id, r.end);
      break;
    case hd::SessionRecordTag::kActionQuiesce:
      service.OnActionQuiesced(id, r.quiesce);
      break;
    case hd::SessionRecordTag::kCounterFault:
      service.OnCounterFault(id, r.fault);
      break;
    case hd::SessionRecordTag::kAsyncPost:
      service.OnAsyncPost(id, r.async_post);
      break;
    case hd::SessionRecordTag::kAsyncRun:
      service.OnAsyncRun(id, r.async_run);
      break;
    case hd::SessionRecordTag::kAsyncWaitStart:
      service.OnAsyncWaitStart(id, r.wait_start);
      break;
    case hd::SessionRecordTag::kAsyncWaitEnd:
      service.OnAsyncWaitEnd(id, r.wait_end);
      break;
    default:
      break;  // usage footer: no SPI traffic
  }
}

void PushPayload(hd::DetectorService& service, telemetry::SessionId id, hd::SpiPayload& p) {
  switch (p.kind) {
    case hd::SpiPayload::Kind::kDispatchStart:
      (void)service.OnDispatchStart(id, p.start);
      break;
    case hd::SpiPayload::Kind::kDispatchEnd:
      p.end.samples = p.samples;
      service.OnDispatchEnd(id, p.end);
      break;
    case hd::SpiPayload::Kind::kActionQuiesce:
      service.OnActionQuiesced(id, p.quiesce);
      break;
    case hd::SpiPayload::Kind::kCounterFault:
      service.OnCounterFault(id, p.fault);
      break;
    case hd::SpiPayload::Kind::kAsyncPost:
      service.OnAsyncPost(id, p.async_post);
      break;
    case hd::SpiPayload::Kind::kAsyncRun:
      service.OnAsyncRun(id, p.async_run);
      break;
    case hd::SpiPayload::Kind::kAsyncWaitStart:
      service.OnAsyncWaitStart(id, p.wait_start);
      break;
    case hd::SpiPayload::Kind::kAsyncWaitEnd:
      service.OnAsyncWaitEnd(id, p.wait_end);
      break;
    default:
      throw std::runtime_error("unexpected payload kind on the record path");
  }
}

// Moves a parsed record into the pipeline's payload type; false for the usage footer.
bool ToPayload(hd::SessionRecord& r, hd::SpiPayload* p) {
  switch (r.tag) {
    case hd::SessionRecordTag::kDispatchStart:
      p->kind = hd::SpiPayload::Kind::kDispatchStart;
      p->start = r.start;
      return true;
    case hd::SessionRecordTag::kDispatchEnd:
      p->kind = hd::SpiPayload::Kind::kDispatchEnd;
      p->end = r.end;
      p->samples = std::move(r.samples);
      return true;
    case hd::SessionRecordTag::kActionQuiesce:
      p->kind = hd::SpiPayload::Kind::kActionQuiesce;
      p->quiesce = r.quiesce;
      return true;
    case hd::SessionRecordTag::kCounterFault:
      p->kind = hd::SpiPayload::Kind::kCounterFault;
      p->fault = r.fault;
      return true;
    case hd::SessionRecordTag::kAsyncPost:
      p->kind = hd::SpiPayload::Kind::kAsyncPost;
      p->async_post = r.async_post;
      return true;
    case hd::SessionRecordTag::kAsyncRun:
      p->kind = hd::SpiPayload::Kind::kAsyncRun;
      p->async_run = r.async_run;
      return true;
    case hd::SessionRecordTag::kAsyncWaitStart:
      p->kind = hd::SpiPayload::Kind::kAsyncWaitStart;
      p->wait_start = r.wait_start;
      return true;
    case hd::SessionRecordTag::kAsyncWaitEnd:
      p->kind = hd::SpiPayload::Kind::kAsyncWaitEnd;
      p->wait_end = r.wait_end;
      return true;
    default:
      return false;
  }
}

std::string MergedRender(std::vector<hd::SessionResult>& results) {
  std::sort(results.begin(), results.end(),
            [](const auto& a, const auto& b) { return a.id.value < b.id.value; });
  hd::HangBugReport merged;
  for (const hd::SessionResult& result : results) {
    merged.Merge(result.report);
  }
  return RenderReport(merged);
}

// Sessions, busy time and failures of a rung, accumulated over passes.
struct Tally {
  int64_t sessions = 0;
  int64_t failed = 0;
  int64_t busy_ns = 0;
  int64_t passes = 0;
};

void SetRate(const std::string& rung, const Tally& tally, Metrics* m) {
  double seconds = static_cast<double>(tally.busy_ns) * 1e-9;
  m->Set(rung + ".sessions", static_cast<double>(tally.sessions));
  m->Set(rung + ".failed", static_cast<double>(tally.failed));
  m->Set(rung + ".seconds", seconds);
  m->Set(rung + ".sessions_per_s", static_cast<double>(tally.sessions) / seconds);
}

double SelfUsPerSpan(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  auto it = totals.find(name);
  if (it == totals.end() || it->second.spans == 0) {
    return 0.0;
  }
  return static_cast<double>(it->second.self_ns) * 1e-3 / static_cast<double>(it->second.spans);
}

}  // namespace

Metrics RunR1(const SessionSet& set, const std::string& oracle, double seconds,
              SpanRecorder& spans) {
  Metrics m;
  Tally tally;
  int64_t parse_ns = 0;
  int64_t parsed_bytes = 0;
  int64_t diagnoser_runs = 0;
  int64_t schecker_runs = 0;
  const int64_t start = NowNs();
  do {
    hd::HangBugReport merged;
    bool ok = true;
    for (const hd::SessionLogSlice& slice : set.slices) {
      const uint64_t root = spans.NextId();
      const int64_t t0 = NowNs();
      hd::SessionLog log;
      std::string error;
      ok = hd::LoadSessionLogBytes(slice.bytes, &log, &error) && ok;
      const int64_t t1 = NowNs();
      hd::ReplaySession replay(std::move(log));
      replay.Run();
      const int64_t t2 = NowNs();
      spans.Record("hosts.parse", root, slice.id.value, t0, t1);
      spans.Record("r1.session", 0, slice.id.value, t0, t2, 1, root);
      parse_ns += t1 - t0;
      parsed_bytes += static_cast<int64_t>(slice.bytes.size());
      tally.busy_ns += t2 - t0;
      if (tally.passes == 0) {
        for (const hd::ExecutionRecord& record : replay.core().log()) {
          diagnoser_runs += record.diagnoser_ran ? 1 : 0;
          schecker_runs += record.schecker_ran ? 1 : 0;
        }
      }
      merged.Merge(replay.core().local_report());
    }
    ++tally.passes;
    tally.sessions += static_cast<int64_t>(set.slices.size());
    tally.failed += ok && RenderReport(merged) == oracle ? 0 : set.slices.size();
  } while (SecondsSince(start) < seconds);

  // The parse split: the symbol-table prefix and the records, parsed piecewise through the
  // streaming entry points (the same grammar and bounds checks as the whole-log parse).
  int64_t prefix_ns = 0;
  int64_t record_ns = 0;
  int64_t records = 0;
  for (const hd::SessionLogSlice& slice : set.slices) {
    hd::SessionLogLayout layout;
    std::string error;
    if (!hd::ScanSessionLog(slice.bytes, &layout, &error)) {
      throw std::runtime_error("scan: " + error);
    }
    const std::string prefix = slice.bytes.substr(0, layout.header_end);
    std::vector<std::string> bodies;
    for (size_t k = 0; k + 1 < layout.record_offsets.size(); ++k) {
      bodies.push_back(slice.bytes.substr(layout.record_offsets[k],
                                          layout.record_offsets[k + 1] - layout.record_offsets[k]));
    }
    const uint64_t root = spans.NextId();
    const int64_t t0 = NowNs();
    hd::SessionLog log;
    bool ok = hd::ParseSessionLogPrefix(prefix, &log, &error);
    const int64_t t1 = NowNs();
    for (const std::string& body : bodies) {
      hd::SessionRecord record;
      ok = ok && hd::ParseSessionRecordBytes(body, *log.symbols, &record, &error);
    }
    const int64_t t2 = NowNs();
    if (!ok) {
      throw std::runtime_error("piecewise parse: " + error);
    }
    spans.Record("hosts.prefix_parse", root, slice.id.value, t0, t1);
    spans.Record("hosts.record_parse", root, slice.id.value, t1, t2,
                 static_cast<int64_t>(bodies.size()));
    spans.Record("r1.split", 0, slice.id.value, t0, t2, 1, root);
    prefix_ns += t1 - t0;
    record_ns += t2 - t1;
    records += static_cast<int64_t>(bodies.size());
  }

  SetRate("r1", tally, &m);
  const auto totals = SummarizeSpans(spans.Snapshot());
  const double n = static_cast<double>(set.slices.size());
  m.Set("hosts.prefix_parse_us", static_cast<double>(prefix_ns) * 1e-3 / n);
  m.Set("hosts.record_parse_ns",
        records > 0 ? static_cast<double>(record_ns) / static_cast<double>(records) : 0.0);
  m.Set("hosts.parse_mb_per_s",
        static_cast<double>(parsed_bytes) / static_cast<double>(parse_ns) * 1e3);
  // R1 minus parse: the r1.session span's self time.
  m.Set("hangdoctor.replay_us_per_session", SelfUsPerSpan(totals, "r1.session"));
  m.Set("hangdoctor.diagnoser_runs", static_cast<double>(diagnoser_runs));
  m.Set("hangdoctor.schecker_runs", static_cast<double>(schecker_runs));
  return m;
}

Metrics RunR2(const SessionSet& set, const std::string& oracle, double seconds,
              SpanRecorder& spans) {
  Metrics m;
  Tally tally;
  const int64_t start = NowNs();
  do {
    hd::DetectorService service(hd::ServiceOptions{.shards = 2});
    std::vector<hd::SessionResult> results;
    bool ok = true;
    for (const hd::SessionLogSlice& slice : set.slices) {
      const uint64_t root = spans.NextId();
      const int64_t t0 = NowNs();
      hd::SessionLog log;
      std::string error;
      ok = hd::LoadSessionLogBytes(slice.bytes, &log, &error) && ok;
      const int64_t t1 = NowNs();
      service.Open(slice.id, log.info, log.config);
      for (hd::SessionRecord& record : log.records) {
        PushRecord(service, slice.id, record);
      }
      results.push_back(service.Close(slice.id));
      const int64_t t2 = NowNs();
      spans.Record("hosts.parse", root, slice.id.value, t0, t1);
      spans.Record("r2.session", 0, slice.id.value, t0, t2, 1, root);
      tally.busy_ns += t2 - t0;
    }
    ++tally.passes;
    tally.sessions += static_cast<int64_t>(set.slices.size());
    tally.failed += ok && MergedRender(results) == oracle ? 0 : set.slices.size();
  } while (SecondsSince(start) < seconds);
  SetRate("r2", tally, &m);
  // R2 minus parse: the r2.session span's self time.
  m.Set("service.sync_us_per_session", SelfUsPerSpan(SummarizeSpans(spans.Snapshot()), "r2.session"));
  return m;
}

Metrics RunR3(const SessionSet& set, const std::string& oracle, double seconds,
              int32_t threads, SpanRecorder& spans) {
  struct Prepared {
    hd::SessionLog log;
    std::vector<hd::SpiPayload> payloads;
  };
  Metrics m;
  Tally tally;
  const size_t n = set.slices.size();
  const int64_t start = NowNs();
  do {
    hd::ServiceOptions options;
    options.shards = threads;
    options.threads = threads;
    hd::DetectorService service(options);
    std::vector<std::unique_ptr<Prepared>> prepared(n);
    std::atomic<int64_t> parse_failures{0};
    const uint64_t root = spans.NextId();
    const int64_t t0 = NowNs();
    {
      std::vector<std::thread> producers;
      for (int32_t p = 0; p < threads; ++p) {
        producers.emplace_back([&, p]() {
          const int64_t p0 = NowNs();
          hd::DetectorService::Ingestor ingestor(&service);
          for (size_t s = static_cast<size_t>(p); s < n; s += static_cast<size_t>(threads)) {
            auto prep = std::make_unique<Prepared>();
            std::string error;
            if (!hd::LoadSessionLogBytes(set.slices[s].bytes, &prep->log, &error)) {
              ++parse_failures;
              continue;
            }
            hd::SpiPayload open;
            open.kind = hd::SpiPayload::Kind::kSessionOpen;
            open.info = prep->log.info;
            open.config = prep->log.config;
            prep->payloads.push_back(std::move(open));
            for (hd::SessionRecord& record : prep->log.records) {
              hd::SpiPayload payload;
              if (ToPayload(record, &payload)) {
                prep->payloads.push_back(std::move(payload));
              }
            }
            prep->payloads.emplace_back();  // default kind: kSessionClose
            for (const hd::SpiPayload& payload : prep->payloads) {
              ingestor.Push(hd::ServiceRecordRef{set.slices[s].id, &payload});
            }
            prepared[s] = std::move(prep);
          }
          ingestor.Flush();
          spans.Record("r3.produce", root, 0, p0, NowNs());
        });
      }
      for (std::thread& producer : producers) {
        producer.join();
      }
    }
    std::vector<hd::SessionResult> results = service.DrainClosed();
    const int64_t t1 = NowNs();
    spans.Record("r3.pass", 0, 0, t0, t1, static_cast<int64_t>(n), root);
    tally.busy_ns += t1 - t0;
    ++tally.passes;
    tally.sessions += static_cast<int64_t>(n);
    bool ok = parse_failures.load() == 0 && results.size() == n &&
              service.TakeIngestErrors().empty();
    tally.failed += ok && MergedRender(results) == oracle ? 0 : n;
  } while (SecondsSince(start) < seconds);
  SetRate("r3_t" + std::to_string(threads), tally, &m);
  return m;
}

Metrics RunR4(const SessionSet& set, const std::string& oracle, double seconds,
              SpanRecorder& spans) {
  // The wire bytes a conforming client sends after HELLO: every session multiplexed
  // round-robin into one container, each container frame as one length-prefixed wire frame.
  std::string container;
  std::string error;
  std::vector<std::string> frames;
  if (!hd::MuxSessionLogs(set.slices, {}, &container, &error) ||
      !netd::ContainerToWireFrames(container, &frames, &error)) {
    throw std::runtime_error("r4 container: " + error);
  }
  std::string wire;
  for (const std::string& frame : frames) {
    netd::AppendFrame(&wire, frame);
  }
  constexpr size_t kChunk = 64u << 10;

  Metrics m;
  Tally tally;
  int64_t decode_ns = 0;
  int64_t decoded_frames = 0;
  const int64_t start = NowNs();
  do {
    hd::DetectorService service(hd::ServiceOptions{.shards = 2});
    netd::FrameSplitter splitter;
    netd::MuxStreamDecoder decoder;
    std::vector<netd::DecodedFrame> decoded;
    std::vector<hd::SessionResult> results;
    bool ok = true;
    const uint64_t root = spans.NextId();
    const int64_t pass_start = NowNs();
    std::string payload;
    for (size_t offset = 0; offset < wire.size() && ok; offset += kChunk) {
      const int64_t t0 = NowNs();
      ok = splitter.Feed(wire.data() + offset, std::min(kChunk, wire.size() - offset));
      while (ok && splitter.Next(&payload)) {
        decoded.emplace_back();
        ok = decoder.Decode(payload, &decoded.back());
      }
      const int64_t t1 = NowNs();
      for (netd::DecodedFrame& frame : decoded) {
        switch (frame.kind) {
          case netd::DecodedFrame::Kind::kOpen:
            service.Open(frame.id, frame.record.record.info, frame.record.record.config);
            break;
          case netd::DecodedFrame::Kind::kRecord:
            if (!frame.skip) {
              PushPayload(service, frame.id, frame.record.record);
            }
            break;
          case netd::DecodedFrame::Kind::kClose:
            results.push_back(service.Close(frame.id));
            break;
          default:
            break;
        }
      }
      const int64_t t2 = NowNs();
      const auto count = static_cast<int64_t>(decoded.size());
      spans.Record("netd.decode", root, 0, t0, t1, count);
      spans.Record("service.apply", root, 0, t1, t2, count);
      decode_ns += t1 - t0;
      decoded_frames += count;
      decoded.clear();
    }
    const int64_t pass_end = NowNs();
    spans.Record("r4.pass", 0, 0, pass_start, pass_end, static_cast<int64_t>(set.slices.size()),
                 root);
    tally.busy_ns += pass_end - pass_start;
    ++tally.passes;
    tally.sessions += static_cast<int64_t>(set.slices.size());
    ok = ok && decoder.saw_bye() && results.size() == set.slices.size();
    tally.failed += ok && MergedRender(results) == oracle ? 0 : set.slices.size();
  } while (SecondsSince(start) < seconds);
  SetRate("r4", tally, &m);
  m.Set("netd.decode_ns_per_frame",
        static_cast<double>(decode_ns) / static_cast<double>(std::max<int64_t>(1, decoded_frames)));
  return m;
}

}  // namespace ladder
