// A vector with inline storage for the first N elements, for hot-path
// containers that are almost always tiny (an RCursor's lock path, its dead
// frame list). Only supports trivially-copyable T — enough for the MM's use
// and what makes the inline buffer safely movable.
#ifndef SRC_COMMON_SMALL_VEC_H_
#define SRC_COMMON_SMALL_VEC_H_

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

namespace cortenmm {

template <typename T, size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  SmallVec() = default;

  SmallVec(SmallVec&& other) noexcept { MoveFrom(std::move(other)); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  ~SmallVec() { Reset(); }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      Grow();
    }
    data_[size_++] = value;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  void clear() { size_ = 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  // Removes the element at index i, shifting the tail down (stable order).
  void erase_at(size_t i) {
    assert(i < size_);
    std::memmove(data_ + i, data_ + i + 1, (size_ - i - 1) * sizeof(T));
    --size_;
  }

 private:
  void Grow() {
    size_t new_capacity = capacity_ * 2;
    T* heap = static_cast<T*>(std::malloc(new_capacity * sizeof(T)));
    std::memcpy(heap, data_, size_ * sizeof(T));
    if (data_ != inline_data()) {
      std::free(data_);
    }
    data_ = heap;
    capacity_ = new_capacity;
  }

  void Reset() {
    if (data_ != inline_data()) {
      std::free(data_);
    }
    data_ = inline_data();
    capacity_ = N;
    size_ = 0;
  }

  void MoveFrom(SmallVec&& other) {
    if (other.data_ == other.inline_data()) {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      data_ = inline_data();
      capacity_ = N;
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T* inline_data() { return reinterpret_cast<T*>(inline_); }

  // Raw storage: constructing a SmallVec writes none of its N elements (a
  // cursor carries four of these and is built on every fault). Elements are
  // trivially copyable, so the bytes hold them without construction.
  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = inline_data();
  size_t capacity_ = N;
  size_t size_ = 0;
};

}  // namespace cortenmm

#endif  // SRC_COMMON_SMALL_VEC_H_
