// A non-owning reference to a callable, for hot-path predicates.
//
// std::function owns a copy of its target and calls it through a type-erased
// manager; a FunctionRef is two pointers, built without allocation from any
// callable that outlives the call it is passed to (typically a lambda at the
// call site), and invoked through one indirect call.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace h2push::util {

template <class Signature>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT: implicit, like std::function
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace h2push::util
