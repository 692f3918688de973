#include "src/hangdoctor/session_stream.h"

#include <stdexcept>
#include <string>

namespace hangdoctor {

void SpiStreamRecorder::OnSessionStart(const SessionInfo& info) { info_ = info; }

void SpiStreamRecorder::OnDispatchStart(const DispatchStart& start) {
  SpiPayload payload;
  payload.kind = SpiPayload::Kind::kDispatchStart;
  payload.start = start;
  records_.push_back(std::move(payload));
}

void SpiStreamRecorder::OnDispatchEnd(const DispatchEnd& end) {
  SpiPayload payload;
  payload.kind = SpiPayload::Kind::kDispatchEnd;
  payload.end = end;
  // The span in `end` points at the host's sample buffer, which is reused; own a copy and
  // repoint at push time (Consume/ApplyRecord re-derive end.samples from payload.samples).
  payload.samples.assign(end.samples.begin(), end.samples.end());
  records_.push_back(std::move(payload));
}

void SpiStreamRecorder::OnActionQuiesce(const ActionQuiesce& quiesce) {
  SpiPayload payload;
  payload.kind = SpiPayload::Kind::kActionQuiesce;
  payload.quiesce = quiesce;
  records_.push_back(std::move(payload));
}

void SpiStreamRecorder::OnCounterFault(const CounterFault& fault) {
  SpiPayload payload;
  payload.kind = SpiPayload::Kind::kCounterFault;
  payload.fault = fault;
  records_.push_back(std::move(payload));
}

void SpiStreamRecorder::OnAsyncPost(const AsyncPost& post) {
  SpiPayload payload;
  payload.kind = SpiPayload::Kind::kAsyncPost;
  payload.async_post = post;
  records_.push_back(std::move(payload));
}

void SpiStreamRecorder::OnAsyncRun(const AsyncRun& run) {
  SpiPayload payload;
  payload.kind = SpiPayload::Kind::kAsyncRun;
  payload.async_run = run;
  records_.push_back(std::move(payload));
}

void SpiStreamRecorder::OnAsyncWaitStart(const AsyncWaitStart& wait) {
  SpiPayload payload;
  payload.kind = SpiPayload::Kind::kAsyncWaitStart;
  payload.wait_start = wait;
  records_.push_back(std::move(payload));
}

void SpiStreamRecorder::OnAsyncWaitEnd(const AsyncWaitEnd& wait) {
  SpiPayload payload;
  payload.kind = SpiPayload::Kind::kAsyncWaitEnd;
  payload.wait_end = wait;
  records_.push_back(std::move(payload));
}

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
      backend.OnActionQuiesced(payload.quiesce);
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

}  // namespace hangdoctor
