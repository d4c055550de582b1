// A small-buffer-optimized, move-only callable: the event representation of
// the simulation hot path.
//
// Every Simulator::Schedule used to heap-allocate a std::function closure;
// profiling the experiment sweeps showed that allocation (plus the matching
// free at fire time) dominated per-event cost. InlineFunction stores the
// callable inline when it fits (kInlineBytes covers every closure the
// simulator, kernel timers, and network delivery create today) and falls
// back to a pooled heap block for oversized captures, so steady-state
// scheduling performs zero allocator calls.
//
// Deliberately minimal: no copy, no target_type, no allocator awareness —
// just construct, move, invoke, destroy. Misuse (invoking an empty function)
// is a programming error and asserts in debug builds.
#ifndef SRC_SIM_INLINE_FN_H_
#define SRC_SIM_INLINE_FN_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace msim {

namespace detail {

// Recycles heap blocks for closures too large for the inline buffer. The
// pool is thread-local: each simulation is single-threaded, and the
// experiment runner's worker threads each keep their own free list, so no
// locking is needed and reuse stays deterministic (pool state never affects
// simulated behaviour, only host allocation traffic).
class OverflowPool {
 public:
  static void* Allocate(std::size_t bytes) {
    if (bytes <= kBlockBytes) {
      std::vector<void*>& pool = Freelist();
      if (!pool.empty()) {
        void* p = pool.back();
        pool.pop_back();
        return p;
      }
      return ::operator new(kBlockBytes);
    }
    return ::operator new(bytes);
  }

  static void Release(void* p, std::size_t bytes) {
    if (bytes <= kBlockBytes) {
      std::vector<void*>& pool = Freelist();
      if (pool.size() < kMaxPooled) {
        pool.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }

 private:
  // One size class covers the realistic overflow population (packet-carrying
  // closures a few words past the inline budget); anything bigger goes
  // straight to the allocator.
  static constexpr std::size_t kBlockBytes = 256;
  static constexpr std::size_t kMaxPooled = 64;

  // Owns the pooled blocks, so a thread's blocks are freed when it exits.
  struct Blocks {
    Blocks() = default;
    Blocks(const Blocks&) = delete;
    Blocks& operator=(const Blocks&) = delete;
    ~Blocks() {
      for (void* p : list) {
        ::operator delete(p);
      }
    }
    std::vector<void*> list;
  };

  static std::vector<void*>& Freelist() {
    thread_local Blocks pool;
    return pool.list;
  }
};

}  // namespace detail

template <typename Signature, std::size_t InlineBytes = 64>
class InlineFunction;  // primary template intentionally undefined

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;

  InlineFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      if constexpr (VTableFor<Fn>::kTrivial) {
        // MoveFrom copies the whole buffer of a trivial closure, so give the
        // bytes the closure does not write (all of them, for an empty
        // capture list) a value first.
        std::memset(buf_, 0, kInlineBytes);
      }
      obj_ = new (buf_) Fn(std::forward<F>(f));
    } else {
      obj_ = new (detail::OverflowPool::Allocate(sizeof(Fn))) Fn(std::forward<F>(f));
    }
    vt_ = &VTableFor<Fn>::table;
  }

  InlineFunction(InlineFunction&& o) noexcept { MoveFrom(std::move(o)); }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      Reset();
      MoveFrom(std::move(o));
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  R operator()(Args... args) const {
    assert(vt_ != nullptr);
    return vt_->invoke(obj_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    // Moves the object into `dst` (inline buffer or fresh pool block of the
    // returned pointer) and destroys the source; returns the new obj pointer.
    void* (*relocate)(void* src, unsigned char* dst_buf);
    void (*destroy)(void* obj, unsigned char* inline_buf);
    // Inline and trivially copyable: relocation is a memcpy of the buffer
    // and destruction is a no-op, so moves skip the indirect calls entirely.
    // Nearly every event closure (captures of pointers, references, ints)
    // qualifies — this is the common case on the scheduling hot path.
    bool trivial;
  };

  template <typename Fn>
  struct VTableFor {
    static constexpr bool kInline =
        sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t);
    static constexpr bool kTrivial = kInline && std::is_trivially_copyable_v<Fn>;

    static R Invoke(void* obj, Args&&... args) {
      return (*static_cast<Fn*>(obj))(std::forward<Args>(args)...);
    }

    static void* Relocate(void* src, unsigned char* dst_buf) {
      Fn* from = static_cast<Fn*>(src);
      if constexpr (kInline) {
        Fn* to = new (dst_buf) Fn(std::move(*from));
        from->~Fn();
        return to;
      } else {
        // Heap-held object: ownership of the block transfers wholesale.
        (void)dst_buf;
        return src;
      }
    }

    static void Destroy(void* obj, unsigned char* inline_buf) {
      static_cast<Fn*>(obj)->~Fn();
      if constexpr (!kInline) {
        detail::OverflowPool::Release(obj, sizeof(Fn));
      }
      (void)inline_buf;
    }

    static constexpr VTable table{&Invoke, &Relocate, &Destroy, kTrivial};
  };

  void MoveFrom(InlineFunction&& o) noexcept {
    vt_ = o.vt_;
    if (vt_ != nullptr) {
      if (vt_->trivial) {
        // The whole buffer is copied unconditionally: a fixed-size memcpy
        // compiles to a handful of wide stores, with no branch on the
        // closure's actual size. The constructor zeroed the bytes past the
        // closure's real size, but GCC's -Wmaybe-uninitialized cannot follow
        // a buffer through a chain of moves, so the copy is exempted from
        // that warning.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
        std::memcpy(buf_, o.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
        obj_ = buf_;
      } else {
        obj_ = vt_->relocate(o.obj_, buf_);
      }
      o.vt_ = nullptr;
      o.obj_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (vt_ != nullptr) {
      if (!vt_->trivial) {
        vt_->destroy(obj_, buf_);
      }
      vt_ = nullptr;
      obj_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void* obj_ = nullptr;
  const VTable* vt_ = nullptr;
};

// The simulator's event callable. 64 inline bytes fits every closure on the
// hot path, including the circuit layer's packet-carrying lambdas.
using EventFn = InlineFunction<void(), 64>;

}  // namespace msim

#endif  // SRC_SIM_INLINE_FN_H_
