#include "sim/cost_model.hpp"

namespace rcua::sim {

CostModelOverride::CostModelOverride() : saved_(CostModel::mutable_instance()) {}

CostModelOverride::~CostModelOverride() {
  CostModel::mutable_instance() = saved_;
}

}  // namespace rcua::sim
