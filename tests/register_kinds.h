// Typed tests with plain ids: one test-case template run once per kind.

#ifndef STREAMWORKS_TESTS_REGISTER_KINDS_H_
#define STREAMWORKS_TESTS_REGISTER_KINDS_H_

#include <gtest/gtest.h>

namespace streamworks {

/// Registers the test-case template `Case` (a ::testing::Test subclass
/// template overriding TestBody) once per kind, as `<Kind::kSuite>.<name>`.
/// One body then covers every kind, while each kind's test keeps a plain
/// Suite.Case id and may share its suite with ordinary TEST()s (TYPED_TEST
/// would name it Suite/0.Case). Call at namespace scope:
///
///   [[maybe_unused]] const bool kRegistered =
///       RegisterForKinds<MyCase, KindA, KindB>("MyCase");
template <template <typename> class Case, typename... Kinds>
bool RegisterForKinds(const char* name) {
  // The factory returns ::testing::Test*, the fixture type TEST() uses, so
  // a suite may mix both kinds of registration.
  (static_cast<void>(::testing::RegisterTest(
       Kinds::kSuite, name, nullptr, nullptr, __FILE__, __LINE__,
       []() -> ::testing::Test* { return new Case<Kinds>(); })),
   ...);
  return true;
}

}  // namespace streamworks

#endif  // STREAMWORKS_TESTS_REGISTER_KINDS_H_
