// StrCat appends strings, characters, bool and integers directly instead
// of going through a stream; its output must stay byte-identical to what
// `std::ostringstream() << arg...` produces. Each test renders the same
// arguments both ways, for every argument type the code base passes.
// ReadFile reads regular files only; the StringsTest cases hand it what
// else a path can name.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/ids.h"
#include "common/strings.h"

namespace rapar {
namespace {

template <typename... Args>
std::string StreamCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

template <typename... Args>
void ExpectSame(const Args&... args) {
  EXPECT_EQ(StrCat(args...), StreamCat(args...));
}

// An integer type at 0, its minimum and its maximum, alone and between
// string arguments.
template <typename T>
void ExpectIntegerLimits() {
  const T lo = std::numeric_limits<T>::min();
  const T hi = std::numeric_limits<T>::max();
  const T zero = 0;
  ExpectSame(zero);
  ExpectSame(lo);
  ExpectSame(hi);
  ExpectSame("[", lo, ",", zero, ",", hi, "]");
}

enum Color { kRed, kGreen = 7, kBlue = -3 };

TEST(StrCatTest, NoArgumentsIsEmpty) { EXPECT_EQ(StrCat(), ""); }

TEST(StrCatTest, StringKinds) {
  const std::string s = "string";
  const char* p = "pointer";
  const char arr[] = "array";
  char mutable_arr[] = "mutable";
  const std::string_view sv = std::string_view("view-with-tail").substr(0, 4);
  ExpectSame(s);
  ExpectSame(p);
  ExpectSame(arr);
  ExpectSame(mutable_arr);
  ExpectSame(sv);
  ExpectSame(std::string());
  ExpectSame("");
  ExpectSame(s, p, arr, mutable_arr, sv);
  // Embedded NULs in a std::string are kept, as a stream keeps them.
  ExpectSame(std::string("a\0b", 3));
}

TEST(StrCatTest, CharactersPrintAsCharacters) {
  ExpectSame('x');
  ExpectSame('\0');
  ExpectSame(static_cast<signed char>('s'));
  ExpectSame(static_cast<unsigned char>('u'));
  ExpectSame(static_cast<std::int8_t>(65));
  ExpectSame(static_cast<std::uint8_t>(66));
  ExpectSame(static_cast<std::int8_t>(-1));
  ExpectSame(static_cast<std::uint8_t>(255));
  ExpectSame("<", 'c', static_cast<std::int8_t>(67), ">");
}

TEST(StrCatTest, BoolPrintsAsDigit) {
  ExpectSame(true);
  ExpectSame(false);
  EXPECT_EQ(StrCat(true, false), "10");
}

TEST(StrCatTest, EveryIntegerWidthAtZeroMinAndMax) {
  ExpectIntegerLimits<short>();
  ExpectIntegerLimits<unsigned short>();
  ExpectIntegerLimits<int>();
  ExpectIntegerLimits<unsigned>();
  ExpectIntegerLimits<long>();
  ExpectIntegerLimits<unsigned long>();
  ExpectIntegerLimits<long long>();
  ExpectIntegerLimits<unsigned long long>();
  ExpectIntegerLimits<std::int16_t>();
  ExpectIntegerLimits<std::uint16_t>();
  ExpectIntegerLimits<std::int32_t>();
  ExpectIntegerLimits<std::uint32_t>();
  ExpectIntegerLimits<std::int64_t>();
  ExpectIntegerLimits<std::uint64_t>();
  ExpectIntegerLimits<std::size_t>();
  ExpectIntegerLimits<std::ptrdiff_t>();
  ExpectIntegerLimits<std::uintptr_t>();
  ExpectSame(-42, 42u, -7L, 7UL, -9LL, 9ULL);
}

TEST(StrCatTest, FloatingPointUsesStreamFormatting) {
  ExpectSame(0.0);
  ExpectSame(-0.0);
  ExpectSame(1.5);
  ExpectSame(1.0 / 3.0);
  ExpectSame(123456789.0);
  ExpectSame(1e-9);
  ExpectSame(std::numeric_limits<double>::max());
  ExpectSame(std::numeric_limits<double>::infinity());
  ExpectSame(0.1f);
  ExpectSame(2.5f);
  ExpectSame(std::numeric_limits<float>::lowest());
}

TEST(StrCatTest, IdsAndEnumsUseTheirStreamOperators) {
  ExpectSame(VarId(3));
  ExpectSame(NodeId::Invalid());
  ExpectSame(kRed);
  ExpectSame(kGreen);
  ExpectSame(kBlue);
  EXPECT_EQ(StrCat(VarId(3)), "#3");
}

TEST(StrCatTest, MixedArgumentLists) {
  const std::string name = "dtp";
  ExpectSame(name, 0, "_", 12u);
  ExpectSame("x=", 3, " y=", -4LL, " ok=", true, " c=", 'q', " f=", 0.25,
             " id=", EdgeId(9), " e=", kGreen, " sz=", std::size_t{17});
  ExpectSame(std::string_view("sv"), static_cast<std::uint8_t>('!'),
             std::numeric_limits<std::int64_t>::min(), 1e300, false);
  EXPECT_EQ(StrCat("x=", 3, "!"), "x=3!");
}

// A per-test path in the test temp directory.
std::string TempPath(const char* name) {
  return testing::TempDir() + "/strings_test_" + std::to_string(::getpid()) +
         "_" + name;
}

TEST(StringsTest, ReadFileRejectsDirectory) {
  const std::string dir = TempPath("dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  // A directory opens and reads as empty; it must not pass for an empty
  // program.
  EXPECT_EQ(ReadFile(dir), std::nullopt);
  const std::string file = dir + "/f.rap";
  std::ofstream(file) << "text";
  EXPECT_EQ(ReadFile(file), std::optional<std::string>("text"));
  ::unlink(file.c_str());
  ::rmdir(dir.c_str());
}

TEST(StringsTest, ReadFileRejectsFifoWithoutBlocking) {
  const std::string fifo = TempPath("fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // Opening a FIFO for reading waits for a writer that never comes. The
  // alarm's default action ends the process, so a reader that opens it
  // fails the test instead of hanging the suite.
  ::alarm(10);
  EXPECT_EQ(ReadFile(fifo), std::nullopt);
  ::alarm(0);
  ::unlink(fifo.c_str());
}

}  // namespace
}  // namespace rapar
