#include "sim/vehicle_state.h"

#include <algorithm>
#include <functional>

namespace dpdp {

VehicleState::VehicleState(int id, int depot_node, const Instance* instance,
                           bool record_visits)
    : id_(id),
      depot_(depot_node),
      instance_(instance),
      net_(instance->network.get()),
      config_(&instance->vehicle_config_of(id)),
      idle_node_(depot_node),
      record_visits_(record_visits) {
  DPDP_CHECK(instance_ != nullptr);
  DPDP_CHECK(depot_node >= 0 && depot_node < net_->num_nodes());
}

void VehicleState::Restart() {
  std::vector<Stop> stops = std::move(stops_);
  std::vector<int> onboard = std::move(onboard_);
  std::vector<VisitRecord> visits = std::move(visits_);
  *this = VehicleState(id_, depot_, instance_, record_visits_);
  stops.clear();
  onboard.clear();
  visits.clear();
  stops_ = std::move(stops);
  onboard_ = std::move(onboard);
  visits_ = std::move(visits);
}

const Order& VehicleState::LookupOrder(int id) const {
  return instance_->order(id);
}

double VehicleState::TravelMinutes(int from, int to,
                                   double depart_time) const {
  double scale = travel_time_scale_;
  if (wave_ != nullptr) scale *= wave_->ScaleAt(depart_time);
  return scale * net_->TravelTimeMinutes(from, to, config_->speed_kmph);
}

void VehicleState::Depart(double depart_time) {
  DPDP_CHECK(next_idx_ < stops_.size());
  // A breakdown hold delays departure; the leg itself is uncommitted until
  // this moment, so waiting at the current node is always legal.
  depart_time = std::max(depart_time, hold_until_);
  const int from = (phase_ == Phase::kIdle) ? idle_node_
                                            : stops_[next_idx_ - 1].node;
  from_node_ = from;
  depart_time_ = depart_time;
  arrive_time_ =
      depart_time + TravelMinutes(from, stops_[next_idx_].node, depart_time);
  committed_length_ += net_->Distance(from, stops_[next_idx_].node);
  phase_ = Phase::kDriving;
}

double VehicleState::PredictedServiceEnd() const {
  DPDP_CHECK(phase_ != Phase::kIdle);
  if (phase_ == Phase::kServing) return service_end_;
  const Stop& stop = stops_[next_idx_];
  double service_start = arrive_time_;
  if (stop.type == StopType::kPickup) {
    service_start =
        std::max(service_start, LookupOrder(stop.order_id).create_time_min);
  }
  return service_start + config_->service_time_min +
         instance_->service_surcharge_at(stop.node);
}

void VehicleState::AdvanceTo(double now) {
  DPDP_CHECK(now + 1e-9 >= clock_);
  while (true) {
    if (phase_ == Phase::kDriving && arrive_time_ <= now) {
      // Arrival event: record the visit, begin (possibly delayed) service.
      const Stop& stop = stops_[next_idx_];
      if (record_visits_) {
        visits_.push_back({stop.node, arrive_time_,
                           config_->capacity - load_});
      }
      double service_start = arrive_time_;
      if (stop.type == StopType::kPickup) {
        service_start = std::max(service_start,
                                 LookupOrder(stop.order_id).create_time_min);
      }
      service_end_ = service_start + config_->service_time_min +
                     instance_->service_surcharge_at(stop.node);
      phase_ = Phase::kServing;
      continue;
    }
    if (phase_ == Phase::kServing && service_end_ <= now) {
      // Service-completion event: apply the load change and move on.
      const Stop& stop = stops_[next_idx_];
      const Order& order = LookupOrder(stop.order_id);
      if (stop.type == StopType::kPickup) {
        onboard_.push_back(stop.order_id);
        load_ += order.quantity;
        DPDP_CHECK(load_ <= config_->capacity + 1e-6);
      } else {
        DPDP_CHECK(!onboard_.empty() && onboard_.back() == stop.order_id);
        onboard_.pop_back();
        load_ -= order.quantity;
      }
      const double done_at = service_end_;
      ++next_idx_;
      if (next_idx_ < stops_.size()) {
        idle_node_ = stop.node;  // Keep position bookkeeping consistent.
        phase_ = Phase::kServing;  // Temporarily; Depart overwrites.
        Depart(done_at);
      } else {
        phase_ = Phase::kIdle;
        idle_node_ = stop.node;
      }
      continue;
    }
    break;
  }
  clock_ = std::max(clock_, now);
}

std::pair<double, double> VehicleState::Position() const {
  if (phase_ == Phase::kDriving) {
    const NodeInfo& a = net_->node(from_node_);
    const NodeInfo& b = net_->node(stops_[next_idx_].node);
    const double span = arrive_time_ - depart_time_;
    double frac = span > 0.0 ? (clock_ - depart_time_) / span : 1.0;
    frac = std::clamp(frac, 0.0, 1.0);
    return {a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y)};
  }
  const int node = (phase_ == Phase::kServing)
                       ? stops_[next_idx_].node
                       : idle_node_;
  return {net_->node(node).x, net_->node(node).y};
}

void VehicleState::MakeAnchor(PlanAnchor* anchor) const {
  anchor->onboard.assign(onboard_.begin(), onboard_.end());
  if (phase_ == Phase::kIdle) {
    anchor->node = idle_node_;
    // An active hold delays the earliest possible departure, so planning
    // must anchor at the repair time, not the current clock.
    anchor->time = std::max(clock_, hold_until_);
    return;
  }
  // The committed stop completes first; the suffix departs from it.
  const Stop& stop = stops_[next_idx_];
  anchor->node = stop.node;
  anchor->time = std::max(PredictedServiceEnd(), hold_until_);
  if (stop.type == StopType::kPickup) {
    anchor->onboard.push_back(stop.order_id);
  } else {
    DPDP_CHECK(!anchor->onboard.empty() &&
               anchor->onboard.back() == stop.order_id);
    anchor->onboard.pop_back();
  }
}

int VehicleState::FirstFreeIndex() const {
  if (phase_ == Phase::kIdle) return static_cast<int>(stops_.size());
  return static_cast<int>(next_idx_) + 1;
}

std::span<const Stop> VehicleState::FreeSuffix() const {
  return std::span<const Stop>(stops_).subspan(FirstFreeIndex());
}

void VehicleState::ApplyNewSuffix(std::span<const Stop> new_suffix,
                                  bool serves_order) {
  DPDP_CHECK(!finished_);
  const std::less<const Stop*> before;
  DPDP_CHECK(new_suffix.empty() ||
             before(new_suffix.data(), stops_.data()) ||
             !before(new_suffix.data(), stops_.data() + stops_.size()));
  const int first = FirstFreeIndex();
  stops_.resize(first);
  stops_.insert(stops_.end(), new_suffix.begin(), new_suffix.end());
  if (serves_order) {
    ++num_assigned_orders_;
    used_ = true;
  }
  if (phase_ == Phase::kIdle && next_idx_ < stops_.size()) {
    Depart(clock_);
  }
}

double VehicleState::FinishRoute() {
  if (finished_) return committed_length_;
  // Drain remaining events one by one so clock_ ends at the true route
  // completion time instead of jumping past it.
  while (phase_ != Phase::kIdle) {
    const double next_event =
        (phase_ == Phase::kDriving) ? arrive_time_ : service_end_;
    AdvanceTo(std::max(next_event, clock_));
  }
  DPDP_CHECK(phase_ == Phase::kIdle);
  DPDP_CHECK(onboard_.empty());
  finished_ = true;
  if (!used_) return 0.0;
  // Final back-to-depot leg.
  committed_length_ += net_->Distance(idle_node_, depot_);
  clock_ += TravelMinutes(idle_node_, depot_, clock_);
  idle_node_ = depot_;
  return committed_length_;
}

}  // namespace dpdp
