// util::require: a passing check with a literal message must not touch the
// allocator (the checks sit on the engine's per-event paths), and a failing
// check must still throw invariant_error with the same message text.
//
// This binary replaces the global operator new/delete with counting
// versions, so the tests can see every allocation the checks make.
#include "util/require.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

namespace {

std::size_t g_news = 0;

void* counted_alloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcc::util {
namespace {

/// Defeats constant folding so every check is really evaluated.
bool opaque(bool v) {
  volatile bool b = v;
  return b;
}

std::string thrown_message(const std::function<void()>& check) {
  try {
    check();
  } catch (const invariant_error& e) {
    return e.what();
  }
  return "<no throw>";
}

TEST(require, counting_allocator_sees_string_allocations) {
  const std::size_t before = g_news;
  const std::string long_text(64, 'x');
  EXPECT_GT(g_news, before);
}

TEST(require, passing_literal_checks_allocate_nothing) {
  const std::int64_t context = 42;
  const std::size_t before = g_news;
  for (int i = 0; i < 1000; ++i) {
    // Messages longer than any small-string buffer: a std::string built
    // from one would have to allocate.
    require(opaque(true), "require_test: plain-form message past the SSO");
    require(opaque(true), "require_test: context-form message past the SSO",
            context);
  }
  EXPECT_EQ(g_news, before);
}

TEST(require, failing_checks_throw_the_same_message_text) {
  EXPECT_EQ(thrown_message([] { require(opaque(false), "plain failure"); }),
            "plain failure");
  EXPECT_EQ(thrown_message([] {
              require(opaque(false), "context failure", 7);
            }),
            "context failure (7)");
  EXPECT_EQ(thrown_message([] {
              require(opaque(false), "named", std::string("flag"));
            }),
            "named (flag)");
}

TEST(require, runtime_built_messages_still_work) {
  const std::string what = std::string("built ") + "at run time";
  EXPECT_NO_THROW(require(opaque(true), what));
  EXPECT_EQ(thrown_message([&] { require(opaque(false), what); }),
            "built at run time");
  EXPECT_EQ(thrown_message([&] { require(opaque(false), what, 3.5); }),
            "built at run time (3.5)");
}

}  // namespace
}  // namespace mcc::util
