#include "src/faultsim/stream_gen.h"

#include <algorithm>
#include <utility>

namespace faultsim {

namespace {

using simkit::Milliseconds;

std::unique_ptr<telemetry::SymbolTable> MakeSymbols() {
  auto symbols = std::make_unique<telemetry::SymbolTable>();
  auto add = [&symbols](const char* clazz, const char* function, const char* file, int32_t line,
                        bool closed, bool is_ui) {
    telemetry::StackFrame frame;
    frame.clazz = clazz;
    frame.function = function;
    frame.file = file;
    frame.line = line;
    frame.in_closed_library = closed;
    symbols->Intern(std::move(frame), is_ui);
  };
  // UI-class frames.
  add("android.view.View", "draw", "View.java", 101, false, true);
  add("android.view.Choreographer", "doFrame", "Choreographer.java", 202, false, true);
  add("android.widget.TextView", "onMeasure", "TextView.java", 303, false, true);
  // Blocking APIs.
  add("java.net.SocketInputStream", "read", "SocketInputStream.java", 44, false, false);
  add("android.database.sqlite.SQLiteDatabase", "query", "SQLiteDatabase.java", 55, false,
      false);
  add("java.io.FileInputStream", "read", "FileInputStream.java", 66, false, false);
  add("org.thirdparty.Codec", "decode", "Codec.java", 77, true, false);
  // App-package frames (callers).
  add("com.streamgen.app.MainActivity", "onTap", "MainActivity.java", 10, false, false);
  add("com.streamgen.app.Worker", "process", "Worker.java", 20, false, false);
  add("com.streamgen.app.Cache", "refresh", "Cache.java", 30, false, false);
  return symbols;
}

}  // namespace

GeneratedStream GenerateStream(const StreamGenOptions& options, simkit::Rng& rng) {
  GeneratedStream stream;
  stream.symbols = MakeSymbols();
  stream.info.app_package = "com.streamgen.app";
  stream.info.num_actions = options.num_actions;
  stream.info.device_id = 7;
  stream.info.symbols = stream.symbols.get();

  auto num_frames = static_cast<int64_t>(stream.symbols->size());
  simkit::SimTime clock = Milliseconds(1);
  for (int64_t execution = 1; execution <= options.num_executions; ++execution) {
    auto uid = static_cast<int32_t>(rng.UniformInt(0, options.num_actions - 1));
    auto events_total = static_cast<int32_t>(rng.UniformInt(1, 3));
    simkit::SimDuration max_response = 0;
    bool fault_pending = rng.Bernoulli(options.counter_fault_probability);
    for (int32_t index = 0; index < events_total; ++index) {
      bool hang = rng.Bernoulli(options.hang_probability);
      simkit::SimDuration response = hang ? Milliseconds(rng.UniformInt(150, 1500))
                                          : Milliseconds(rng.UniformInt(1, 80));
      max_response = std::max(max_response, response);

      stream.events.push_back(
          hangdoctor::MakeSpiPayload(hangdoctor::DispatchStart{clock, execution, uid, index,
                                                               events_total}));

      if (fault_pending) {
        // The host failed to honor the start_counters directive for this execution.
        fault_pending = false;
        hangdoctor::CounterFault fault;
        fault.now = clock + Milliseconds(1);
        fault.execution_id = execution;
        fault.permanent = rng.Bernoulli(0.2);
        stream.events.push_back(hangdoctor::MakeSpiPayload(fault));
      }

      hangdoctor::SpiPayload end;
      end.kind = hangdoctor::SpiPayload::Kind::kDispatchEnd;
      end.end.now = clock + response;
      end.end.execution_id = execution;
      end.end.event_index = index;
      end.end.response = response;
      if (hang && rng.Bernoulli(options.trace_probability)) {
        end.end.trace_stopped = true;
        auto num_samples = rng.UniformInt(0, 8);
        for (int64_t s = 0; s < num_samples; ++s) {
          telemetry::StackTrace sample;
          sample.timestamp_ns = end.end.now - response + Milliseconds(20) * s;
          auto depth = rng.UniformInt(1, 4);
          for (int64_t d = 0; d < depth; ++d) {
            sample.frames.push_back(
                static_cast<telemetry::FrameId>(rng.UniformInt(0, num_frames - 1)));
          }
          end.samples.push_back(std::move(sample));
        }
      }
      stream.events.push_back(std::move(end));
      clock += response + Milliseconds(rng.UniformInt(1, 50));
    }

    hangdoctor::SpiPayload quiesce;
    quiesce.kind = hangdoctor::SpiPayload::Kind::kActionQuiesce;
    quiesce.quiesce.now = clock;
    quiesce.quiesce.execution_id = execution;
    quiesce.quiesce.action_uid = uid;
    quiesce.quiesce.max_response = max_response;
    if (max_response > simkit::kPerceivableDelay) {
      // The host read the counter window for a hang; randomize around the filter
      // thresholds so both S-Checker branches are exercised.
      quiesce.quiesce.counters_valid = true;
      auto& diffs = quiesce.quiesce.counter_diffs;
      diffs[static_cast<size_t>(telemetry::PerfEventType::kContextSwitches)] =
          static_cast<double>(rng.UniformInt(-2, 4));
      diffs[static_cast<size_t>(telemetry::PerfEventType::kTaskClock)] = rng.Uniform(0.0, 3e8);
      diffs[static_cast<size_t>(telemetry::PerfEventType::kPageFaults)] =
          static_cast<double>(rng.UniformInt(0, 1200));
    }
    stream.events.push_back(std::move(quiesce));
    clock += Milliseconds(rng.UniformInt(1, 100));
  }

  if (options.corrupt && !stream.events.empty()) {
    switch (rng.UniformInt(0, 4)) {
      case 0: {
        // Time regression: rewind one event's clock far into the past.
        auto index = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(stream.events.size()) - 1));
        hangdoctor::SpiPayload& event = stream.events[index];
        simkit::SimTime bogus = -Milliseconds(rng.UniformInt(1, 1000));
        switch (event.kind) {
          case hangdoctor::SpiPayload::Kind::kDispatchStart:
            event.start.now = bogus;
            break;
          case hangdoctor::SpiPayload::Kind::kDispatchEnd:
            event.end.now = bogus;
            break;
          case hangdoctor::SpiPayload::Kind::kActionQuiesce:
            event.quiesce.now = bogus;
            break;
          default:  // kCounterFault, the only other kind generated
            event.fault.now = bogus;
            break;
        }
        stream.corruption = "time-regression";
        break;
      }
      case 1: {
        // Orphan record: an end or quiesce for an execution that never started. Scan from a
        // random offset so any record can be hit, but always find one.
        size_t offset = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(stream.events.size()) - 1));
        for (size_t i = 0; i < stream.events.size(); ++i) {
          hangdoctor::SpiPayload& event = stream.events[(offset + i) % stream.events.size()];
          if (event.kind == hangdoctor::SpiPayload::Kind::kDispatchEnd) {
            event.end.execution_id += 1000000;
            stream.corruption = "orphan-end";
            break;
          }
          if (event.kind == hangdoctor::SpiPayload::Kind::kActionQuiesce) {
            event.quiesce.execution_id += 1000000;
            stream.corruption = "orphan-quiesce";
            break;
          }
        }
        break;
      }
      case 2: {
        // Unmatched start: re-send a start while its event is still open.
        for (size_t index = 0; index < stream.events.size(); ++index) {
          if (stream.events[index].kind == hangdoctor::SpiPayload::Kind::kDispatchStart) {
            hangdoctor::SpiPayload duplicate = stream.events[index];
            stream.events.insert(stream.events.begin() + static_cast<ptrdiff_t>(index) + 1,
                                 std::move(duplicate));
            stream.corruption = "start-while-open";
            break;
          }
        }
        break;
      }
      case 3: {
        // Undeclared action uid on a start.
        for (hangdoctor::SpiPayload& event : stream.events) {
          if (event.kind == hangdoctor::SpiPayload::Kind::kDispatchStart) {
            event.start.action_uid = options.num_actions + 5;
            stream.corruption = "uid-out-of-range";
            break;
          }
        }
        break;
      }
      case 4: {
        // Quiesce whose action uid disagrees with its execution's starts.
        for (auto it = stream.events.rbegin(); it != stream.events.rend(); ++it) {
          if (it->kind == hangdoctor::SpiPayload::Kind::kActionQuiesce) {
            // With a single declared action there is no other in-range uid to disagree
            // with; an out-of-range one still mismatches the execution's starts.
            it->quiesce.action_uid =
                options.num_actions > 1 ? (it->quiesce.action_uid + 1) % options.num_actions
                                        : options.num_actions;
            stream.corruption = "quiesce-uid-mismatch";
            break;
          }
        }
        break;
      }
    }
  }
  return stream;
}

}  // namespace faultsim
