#include "sys/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/file_io.h"
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
                                    ByteWriter* writer) {
  writer->F64(event.time);
  writer->I64(event.sequence);
  writer->U32(static_cast<uint32_t>(event.client_id));
  writer->U32(static_cast<uint32_t>(event.wave));
  writer->U32(static_cast<uint32_t>(event.theta_version));
  writer->F64(event.timing.download_seconds);
  writer->F64(event.timing.compute_seconds);
  writer->F64(event.timing.upload_seconds);
  writer->U8(static_cast<uint8_t>(event.decision.fate));
  writer->F64(event.decision.work_fraction);
  writer->F64(event.decision.finish_seconds);
  writer->F64(event.decision.download_fraction);
  writer->U32(static_cast<uint32_t>(event.message.client_id));
  writer->Floats(event.message.delta);
  writer->Floats(event.message.delta2);
  writer->F64(event.message.train_loss);
  writer->U32(static_cast<uint32_t>(event.message.epochs_run));
  writer->U32(static_cast<uint32_t>(event.message.steps_run));
  writer->F64(event.message.final_grad_norm_sq);
  writer->I64(event.message.wire_bytes);
}

Result<ClientCompletionEvent> DeserializeClientCompletionEvent(
    ByteReader* reader) {
  ClientCompletionEvent event;
  FEDADMM_ASSIGN_OR_RETURN(event.time, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(event.sequence, reader->I64());
  FEDADMM_ASSIGN_OR_RETURN(uint32_t client_id, reader->U32());
  event.client_id = static_cast<int>(client_id);
  FEDADMM_ASSIGN_OR_RETURN(uint32_t wave, reader->U32());
  event.wave = static_cast<int>(wave);
  FEDADMM_ASSIGN_OR_RETURN(uint32_t theta_version, reader->U32());
  event.theta_version = static_cast<int>(theta_version);
  FEDADMM_ASSIGN_OR_RETURN(event.timing.download_seconds, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(event.timing.compute_seconds, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(event.timing.upload_seconds, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(uint8_t fate, reader->U8());
  if (fate > static_cast<uint8_t>(ClientFate::kDropped)) {
    return Status::InvalidArgument(
        "DeserializeClientCompletionEvent: bad ClientFate " +
        std::to_string(fate));
  }
  event.decision.fate = static_cast<ClientFate>(fate);
  FEDADMM_ASSIGN_OR_RETURN(event.decision.work_fraction, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(event.decision.finish_seconds, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(event.decision.download_fraction, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(uint32_t message_client, reader->U32());
  event.message.client_id = static_cast<int>(message_client);
  FEDADMM_ASSIGN_OR_RETURN(event.message.delta, reader->Floats());
  FEDADMM_ASSIGN_OR_RETURN(event.message.delta2, reader->Floats());
  FEDADMM_ASSIGN_OR_RETURN(event.message.train_loss, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(uint32_t epochs_run, reader->U32());
  event.message.epochs_run = static_cast<int>(epochs_run);
  FEDADMM_ASSIGN_OR_RETURN(uint32_t steps_run, reader->U32());
  event.message.steps_run = static_cast<int>(steps_run);
  FEDADMM_ASSIGN_OR_RETURN(event.message.final_grad_norm_sq, reader->F64());
  FEDADMM_ASSIGN_OR_RETURN(event.message.wire_bytes, reader->I64());
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

const ClientCompletionEvent& EventQueue::Peek() const {
  FEDADMM_CHECK_MSG(!heap_.empty(), "EventQueue: Peek on empty queue");
  return heap_.front();
}

}  // namespace fedadmm
