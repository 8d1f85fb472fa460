#include "streamworks/obs/stage_trace.h"

namespace streamworks {

std::string_view PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kFrameDecode:
      return "frame_decode";
    case PipelineStage::kAdmission:
      return "admission";
    case PipelineStage::kEngineApply:
      return "engine_apply";
    case PipelineStage::kSjTreeJoin:
      return "sjtree_join";
    case PipelineStage::kExchangeForward:
      return "exchange_forward";
    case PipelineStage::kEnqueue:
      return "enqueue";
    case PipelineStage::kDeliveryFlush:
      return "delivery_flush";
    case PipelineStage::kExchangeRelay:
      return "exchange_relay";
    case PipelineStage::kBarrierWait:
      return "barrier_wait";
  }
  return "unknown";
}

PipelineMetrics::PipelineMetrics(uint64_t slow_threshold_us,
                                 size_t trace_capacity)
    : slow_threshold_us_(slow_threshold_us), ring_(trace_capacity) {}

}  // namespace streamworks
