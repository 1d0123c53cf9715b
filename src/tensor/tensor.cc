#include "tensor/tensor.h"

#include <algorithm>

#include "util/check.h"

namespace tensor {

std::size_t NumElements(const Shape& shape) {
  if (shape.empty()) {
    return 0;
  }
  std::size_t n = 1;
  for (std::size_t d : shape) {
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(NumElements(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  AF_CHECK_EQ(data_.size(), NumElements(shape_));
}

std::size_t Tensor::dim(std::size_t axis) const {
  AF_CHECK_LT(axis, shape_.size());
  return shape_[axis];
}

float& Tensor::At(std::size_t r, std::size_t c) {
  AF_CHECK_EQ(rank(), 2u);
  return data_[r * shape_[1] + c];
}

float Tensor::At(std::size_t r, std::size_t c) const {
  AF_CHECK_EQ(rank(), 2u);
  return data_[r * shape_[1] + c];
}

float& Tensor::At(std::size_t i0, std::size_t i1, std::size_t i2,
                  std::size_t i3) {
  AF_CHECK_EQ(rank(), 4u);
  return data_[((i0 * shape_[1] + i1) * shape_[2] + i2) * shape_[3] + i3];
}

float Tensor::At(std::size_t i0, std::size_t i1, std::size_t i2,
                 std::size_t i3) const {
  AF_CHECK_EQ(rank(), 4u);
  return data_[((i0 * shape_[1] + i1) * shape_[2] + i2) * shape_[3] + i3];
}

void Tensor::Reshape(Shape new_shape) {
  AF_CHECK_EQ(NumElements(new_shape), data_.size());
  shape_ = std::move(new_shape);
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::FillUniform(float lo, float hi, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> dist(lo, hi);
  for (float& x : data_) {
    x = dist(rng);
  }
}

void Tensor::FillNormal(float mean, float stddev, std::mt19937_64& rng) {
  std::normal_distribution<float> dist(mean, stddev);
  for (float& x : data_) {
    x = dist(rng);
  }
}

}  // namespace tensor
