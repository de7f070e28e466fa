#include "src/nn/sequential.h"

#include <cstdio>

namespace dlsys {

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  DLSYS_CHECK(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::Init(Rng* rng) {
  for (auto& l : layers_) l->Init(rng);
}

Tensor Sequential::Forward(const Tensor& x, CacheMode mode) {
  Tensor h = x;
  for (auto& l : layers_) h = l->Forward(h, mode);
  return h;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<Tensor*> Sequential::Params() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* p : l->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::Grads() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* g : l->Grads()) out.push_back(g);
  }
  return out;
}

void Sequential::ZeroGrads() {
  for (auto& l : layers_) l->ZeroGrads();
}

int64_t Sequential::NumParams() const {
  int64_t n = 0;
  for (const auto& l : layers_) {
    n += const_cast<Layer*>(l.get())->NumParams();
  }
  return n;
}

int64_t Sequential::FlopsPerExample() const {
  int64_t n = 0;
  for (const auto& l : layers_) n += l->FlopsPerExample();
  return n;
}

int64_t Sequential::CachedBytes() const {
  int64_t n = 0;
  for (const auto& l : layers_) n += l->CachedBytes();
  return n;
}

void Sequential::DropCaches() {
  for (auto& l : layers_) l->DropCache();
}

std::vector<float> Sequential::GetParameterVector() const {
  std::vector<float> flat;
  flat.reserve(static_cast<size_t>(NumParams()));
  for (const auto& l : layers_) {
    for (Tensor* p : const_cast<Layer*>(l.get())->Params()) {
      flat.insert(flat.end(), p->data(), p->data() + p->size());
    }
  }
  return flat;
}

void Sequential::SetParameterVector(const std::vector<float>& flat) {
  size_t offset = 0;
  for (auto& l : layers_) {
    for (Tensor* p : l->Params()) {
      DLSYS_CHECK(offset + static_cast<size_t>(p->size()) <= flat.size(),
                  "parameter vector too short");
      std::copy(flat.begin() + offset, flat.begin() + offset + p->size(),
                p->data());
      offset += static_cast<size_t>(p->size());
    }
  }
  DLSYS_CHECK(offset == flat.size(), "parameter vector too long");
}

Sequential Sequential::Clone() const {
  Sequential copy;
  for (const auto& l : layers_) copy.Add(l->Clone());
  return copy;
}

std::string Sequential::Summary() const {
  std::string out;
  char line[160];
  for (const auto& l : layers_) {
    std::snprintf(line, sizeof(line), "%-32s params=%-10lld flops=%lld\n",
                  l->name().c_str(),
                  static_cast<long long>(const_cast<Layer*>(l.get())->NumParams()),
                  static_cast<long long>(l->FlopsPerExample()));
    out += line;
  }
  return out;
}

}  // namespace dlsys
