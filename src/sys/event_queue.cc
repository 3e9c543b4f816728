#include "sys/event_queue.h"

#include <algorithm>
#include <utility>

#include "comm/wire.h"
#include "util/status.h"

namespace fedadmm {
namespace {

// Max-heap comparator inverted for a min-heap on (time, sequence).
bool Later(const ClientCompletionEvent& a, const ClientCompletionEvent& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.sequence > b.sequence;
}

}  // namespace

void SerializeClientCompletionEvent(const ClientCompletionEvent& event,
                                    wire::Writer* writer) {
  writer->PutF64(event.time);
  writer->PutU64(static_cast<uint64_t>(event.sequence));
  writer->PutU32(static_cast<uint32_t>(event.client_id));
  writer->PutU32(static_cast<uint32_t>(event.wave));
  writer->PutU32(static_cast<uint32_t>(event.theta_version));
  writer->PutF64(event.timing.download_seconds);
  writer->PutF64(event.timing.compute_seconds);
  writer->PutF64(event.timing.upload_seconds);
  writer->PutU8(static_cast<uint8_t>(event.decision.fate));
  writer->PutF64(event.decision.work_fraction);
  writer->PutF64(event.decision.finish_seconds);
  writer->PutF64(event.decision.download_fraction);
  writer->PutU32(static_cast<uint32_t>(event.message.client_id));
  writer->PutFloats(event.message.delta);
  writer->PutFloats(event.message.delta2);
  writer->PutF64(event.message.train_loss);
  writer->PutU32(static_cast<uint32_t>(event.message.epochs_run));
  writer->PutU32(static_cast<uint32_t>(event.message.steps_run));
  writer->PutU64(static_cast<uint64_t>(event.message.wire_bytes));
}

Result<ClientCompletionEvent> DeserializeClientCompletionEvent(
    wire::ReaderView* reader) {
  ClientCompletionEvent event;
  uint64_t sequence = 0, wire_bytes = 0;
  uint32_t client_id = 0, wave = 0, theta_version = 0, message_client = 0,
           epochs_run = 0, steps_run = 0;
  uint8_t fate = 0;
  FEDADMM_RETURN_IF_ERROR(reader->TryF64(&event.time));
  FEDADMM_RETURN_IF_ERROR(reader->TryU64(&sequence));
  FEDADMM_RETURN_IF_ERROR(reader->TryU32(&client_id));
  FEDADMM_RETURN_IF_ERROR(reader->TryU32(&wave));
  FEDADMM_RETURN_IF_ERROR(reader->TryU32(&theta_version));
  FEDADMM_RETURN_IF_ERROR(reader->TryF64(&event.timing.download_seconds));
  FEDADMM_RETURN_IF_ERROR(reader->TryF64(&event.timing.compute_seconds));
  FEDADMM_RETURN_IF_ERROR(reader->TryF64(&event.timing.upload_seconds));
  FEDADMM_RETURN_IF_ERROR(reader->TryU8(&fate));
  if (fate > static_cast<uint8_t>(ClientFate::kDropped)) {
    return Status::InvalidArgument(
        "DeserializeClientCompletionEvent: bad ClientFate " +
        std::to_string(fate));
  }
  FEDADMM_RETURN_IF_ERROR(reader->TryF64(&event.decision.work_fraction));
  FEDADMM_RETURN_IF_ERROR(reader->TryF64(&event.decision.finish_seconds));
  FEDADMM_RETURN_IF_ERROR(reader->TryF64(&event.decision.download_fraction));
  FEDADMM_RETURN_IF_ERROR(reader->TryU32(&message_client));
  FEDADMM_RETURN_IF_ERROR(reader->TryFloats(&event.message.delta));
  FEDADMM_RETURN_IF_ERROR(reader->TryFloats(&event.message.delta2));
  FEDADMM_RETURN_IF_ERROR(reader->TryF64(&event.message.train_loss));
  FEDADMM_RETURN_IF_ERROR(reader->TryU32(&epochs_run));
  FEDADMM_RETURN_IF_ERROR(reader->TryU32(&steps_run));
  FEDADMM_RETURN_IF_ERROR(reader->TryU64(&wire_bytes));
  event.sequence = static_cast<int64_t>(sequence);
  event.client_id = static_cast<int>(client_id);
  event.wave = static_cast<int>(wave);
  event.theta_version = static_cast<int>(theta_version);
  event.decision.fate = static_cast<ClientFate>(fate);
  event.message.client_id = static_cast<int>(message_client);
  event.message.epochs_run = static_cast<int>(epochs_run);
  event.message.steps_run = static_cast<int>(steps_run);
  event.message.wire_bytes = static_cast<int64_t>(wire_bytes);
  return {std::move(event)};
}

ClientCompletionEvent MakeClientCompletionEvent(
    const ClientSystemProfile& profile, const StragglerPolicy& policy,
    double dispatch_seconds, int64_t download_bytes, UpdateMessage message,
    int wave, int theta_version, int64_t sequence) {
  ClientCompletionEvent event;
  event.client_id = message.client_id;
  event.wave = wave;
  event.theta_version = theta_version;
  event.sequence = sequence;
  event.timing = ComputeClientTiming(profile, message.steps_run,
                                     message.UploadBytes(), download_bytes);
  event.decision = policy.Judge(event.timing);
  event.time = dispatch_seconds + event.decision.finish_seconds;
  event.message = std::move(message);
  return event;
}

void EventQueue::Push(ClientCompletionEvent event) {
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

ClientCompletionEvent EventQueue::Pop() {
  FEDADMM_CHECK_MSG(!heap_.empty(), "EventQueue: Pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  ClientCompletionEvent event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

}  // namespace fedadmm
