#include "src/hangdoctor/session_stream.h"

#include <stdexcept>
#include <string>

namespace hangdoctor {

void PushSpiPayload(SpiBackend& backend, const SpiPayload& payload) {
  switch (payload.kind) {
    case SpiPayload::Kind::kDispatchStart:
      backend.OnDispatchStart(payload.start);
      return;
    case SpiPayload::Kind::kDispatchEnd: {
      // The stored record owns its samples; repoint the span for the push.
      DispatchEnd end = payload.end;
      end.samples = payload.samples;
      backend.OnDispatchEnd(end);
      return;
    }
    case SpiPayload::Kind::kActionQuiesce:
      backend.OnActionQuiesce(payload.quiesce);
      return;
    case SpiPayload::Kind::kCounterFault:
      backend.OnCounterFault(payload.fault);
      return;
    case SpiPayload::Kind::kAsyncPost:
      backend.OnAsyncPost(payload.async_post);
      return;
    case SpiPayload::Kind::kAsyncRun:
      backend.OnAsyncRun(payload.async_run);
      return;
    case SpiPayload::Kind::kAsyncWaitStart:
      backend.OnAsyncWaitStart(payload.wait_start);
      return;
    case SpiPayload::Kind::kAsyncWaitEnd:
      backend.OnAsyncWaitEnd(payload.wait_end);
      return;
    default:
      throw std::invalid_argument("record kind " +
                                  std::to_string(static_cast<int>(payload.kind)) +
                                  " is not telemetry");
  }
}

namespace {

template <typename Record>
SpiPayload Wrap(SpiPayload::Kind kind, Record SpiPayload::*member, const Record& record) {
  SpiPayload payload;
  payload.kind = kind;
  payload.*member = record;
  return payload;
}

}  // namespace

SpiPayload MakeSpiPayload(const DispatchStart& start) {
  return Wrap(SpiPayload::Kind::kDispatchStart, &SpiPayload::start, start);
}

SpiPayload MakeSpiPayload(const DispatchEnd& end) {
  SpiPayload payload = Wrap(SpiPayload::Kind::kDispatchEnd, &SpiPayload::end, end);
  payload.samples.assign(end.samples.begin(), end.samples.end());
  payload.end.samples = {};
  return payload;
}

SpiPayload MakeSpiPayload(const ActionQuiesce& quiesce) {
  return Wrap(SpiPayload::Kind::kActionQuiesce, &SpiPayload::quiesce, quiesce);
}

SpiPayload MakeSpiPayload(const CounterFault& fault) {
  return Wrap(SpiPayload::Kind::kCounterFault, &SpiPayload::fault, fault);
}

SpiPayload MakeSpiPayload(const AsyncPost& post) {
  return Wrap(SpiPayload::Kind::kAsyncPost, &SpiPayload::async_post, post);
}

SpiPayload MakeSpiPayload(const AsyncRun& run) {
  return Wrap(SpiPayload::Kind::kAsyncRun, &SpiPayload::async_run, run);
}

SpiPayload MakeSpiPayload(const AsyncWaitStart& wait) {
  return Wrap(SpiPayload::Kind::kAsyncWaitStart, &SpiPayload::wait_start, wait);
}

SpiPayload MakeSpiPayload(const AsyncWaitEnd& wait) {
  return Wrap(SpiPayload::Kind::kAsyncWaitEnd, &SpiPayload::wait_end, wait);
}

}  // namespace hangdoctor
