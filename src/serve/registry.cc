#include "src/serve/registry.h"

#include <utility>

namespace dlsys {

Result<std::shared_ptr<ModelSnapshot>> CompileSnapshot(
    const Sequential& net, const Shape& example_shape,
    const EngineConfig& config) {
  auto compiled = InferenceEngine::Compile(net, example_shape, config);
  if (!compiled.ok()) return compiled.status();
  auto snap = std::make_shared<ModelSnapshot>();
  snap->engine_config = config;
  ModelSnapshot::Replica& rep = snap->replicas[0];
  rep.engine = std::make_unique<InferenceEngine>(std::move(compiled).value());
  snap->example_input_shape = rep.engine->example_input_shape();
  snap->example_output_shape = rep.engine->example_output_shape();
  snap->in_elems = rep.engine->input_elems_per_example();
  snap->out_elems = rep.engine->output_elems_per_example();
  rep.in_staging = Tensor({config.max_batch, snap->in_elems});
  rep.out_staging = Tensor({config.max_batch, snap->out_elems});
  return snap;
}

Result<int64_t> ModelRegistry::Publish(const std::string& model,
                                       std::shared_ptr<ModelSnapshot> snap) {
  if (model.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  if (snap == nullptr || snap->replicas[0].engine == nullptr) {
    return Status::InvalidArgument("snapshot must hold a compiled engine");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Publish is the only writer of a snapshot's name and version, so a
  // nonzero version means it is already live: renaming it would charge
  // its traffic to another model and race with its readers.
  if (snap->version != 0) {
    return Status::InvalidArgument(
        "snapshot is already published; compile a fresh one");
  }
  std::unique_ptr<Slot>& slot = models_[model];
  if (slot == nullptr) slot = std::make_unique<Slot>();
  slot->version += 1;
  snap->model = model;
  snap->version = slot->version;
  // The RCU swap: in-flight requests holding the previous shared_ptr
  // keep serving the old version; new Acquire calls see this one.
  slot->current.Store(std::move(snap));
  if (slot->version > 1) swap_count_.fetch_add(1);
  return slot->version;
}

std::shared_ptr<ModelSnapshot> ModelRegistry::Acquire(
    const std::string& model) const {
  const Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(model);
    if (it == models_.end()) return nullptr;
    slot = it->second.get();
  }
  // Slots are never destroyed while the registry lives, so the cell
  // load may happen outside the map lock.
  return slot->current.Load();
}

int64_t ModelRegistry::LatestVersion(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(model);
  return it == models_.end() ? 0 : it->second->version;
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, slot] : models_) names.push_back(name);
  return names;
}

}  // namespace dlsys
