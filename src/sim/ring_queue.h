// A FIFO over a power-of-two ring buffer: the storage behind a link's
// waiting and in-flight packets.
//
// A std::deque allocates and frees a chunk every few elements as the queue
// slides forward, for as long as the link carries traffic. The ring
// allocates only when it grows (doubling, moving the elements over in FIFO
// order) and keeps its capacity, so a link that has reached its peak
// occupancy never allocates again. Elements are constructed on push and
// destroyed on pop, so a popped packet releases its shared payload at once.
#ifndef MCC_SIM_RING_QUEUE_H
#define MCC_SIM_RING_QUEUE_H

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace mcc::sim {

template <typename T>
class ring_queue {
 public:
  static constexpr std::size_t initial_capacity = 8;

  ring_queue() = default;
  ring_queue(const ring_queue&) = delete;
  ring_queue& operator=(const ring_queue&) = delete;
  ~ring_queue() {
    while (!empty()) pop_front();
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, cap_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// The k-th element from the head (k < size()).
  T& operator[](std::size_t k) { return slots_[(head_ + k) & (cap_ - 1)]; }
  T& front() { return slots_[head_]; }

  /// Constructs the new tail in place from `args` (brace-initialized, so
  /// aggregates work).
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T* slot = &(*this)[size_];
    ::new (static_cast<void*>(slot)) T{std::forward<Args>(args)...};
    ++size_;
    return *slot;
  }

  void pop_front() {
    std::destroy_at(&slots_[head_]);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  void grow() {
    const std::size_t cap = cap_ == 0 ? initial_capacity : 2 * cap_;
    T* next = std::allocator<T>{}.allocate(cap);
    for (std::size_t k = 0; k < size_; ++k) {
      T& old = (*this)[k];
      ::new (static_cast<void*>(&next[k])) T(std::move(old));
      std::destroy_at(&old);
    }
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, cap_);
    slots_ = next;
    head_ = 0;
    cap_ = cap;
  }

  T* slots_ = nullptr;
  std::size_t cap_ = 0;  // 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_RING_QUEUE_H
