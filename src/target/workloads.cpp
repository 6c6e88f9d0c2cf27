#include "target/workloads.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "util/strings.h"

namespace goofi::target {
namespace {

// ---------------------------------------------------------------------
// fib: iterative Fibonacci. Small and branchy — the default workload of
// the campaign tests. The instruction at position 10 is the loop branch,
// which neither reads nor writes r2: an instret=10 injection into r2
// stays confined to r2 for exactly one captured instruction before the
// recurrence spreads it (tests/core/propagation_test.cpp).
// ---------------------------------------------------------------------
constexpr const char kFibAsm[] = R"(; fib: 20 Fibonacci steps, emit fib(21).
.entry start
start:
  la sp, 0x24000
  li r1, 0              ; fib(k-1)
  li r2, 1              ; fib(k)
  li r3, 0              ; step counter
  li r5, 20             ; step count
fib_loop:
  add r4, r1, r2
  mov r1, r2
  mov r2, r4
  addi r3, r3, 1
  blt r3, r5, fib_loop
  la r6, fib_out
  st r2, [r6]
  mov r1, r2
  sys 4                 ; emit fib(21) = 10946
  halt

.org 0x10000
fib_out:
  .space 4
)";

// ---------------------------------------------------------------------
// isort: insertion sort of 24 words, copy to the output region with a
// checksum. Heavy, repetitive data-cache traffic over a small working
// set — the workload the cache-parity EDM studies use.
// ---------------------------------------------------------------------
constexpr const char kIsortAsm[] = R"(; isort: insertion sort of 24 words.
.entry start
start:
  la sp, 0x24000
  la r1, is_in
  li r2, 24             ; element count
  li r3, 1              ; i
is_outer:
  bge r3, r2, is_sorted
  slli r4, r3, 2
  add r4, r1, r4
  ld r5, [r4]           ; key = a[i]
  mov r6, r3            ; j = i
is_inner:
  beq r6, r0, is_place
  slli r7, r6, 2
  add r7, r1, r7
  ld r9, [r7-4]         ; a[j-1]
  bge r5, r9, is_place
  st r9, [r7]           ; a[j] = a[j-1]
  addi r6, r6, -1
  b is_inner
is_place:
  slli r7, r6, 2
  add r7, r1, r7
  st r5, [r7]
  addi r3, r3, 1
  b is_outer
is_sorted:
  li r3, 0
  li r10, 0             ; checksum
  la r11, is_out
is_copy:
  bge r3, r2, is_done
  slli r4, r3, 2
  add r5, r1, r4
  ld r6, [r5]
  add r7, r11, r4
  st r6, [r7]
  add r10, r10, r6
  addi r3, r3, 1
  b is_copy
is_done:
  la r7, is_csum
  st r10, [r7]
  mov r1, r10
  sys 4                 ; emit checksum
  halt

.org 0x10000
is_in:
  .word 9301, 88, 4097, 12, 7640, 3, 5112, 900
  .word 64, 8191, 2, 6000, 451, 7777, 1024, 33
  .word 2900, 510, 9999, 1, 3333, 620, 8402, 77
.org 0x10100
is_out:
  .space 96
is_csum:
  .space 4
)";

// ---------------------------------------------------------------------
// qsort: recursive quicksort (Lomuto partition) of 20 words. Exercises
// the stack, calls and returns — the workload for call-trigger and
// pointer-corruption studies.
// ---------------------------------------------------------------------
constexpr const char kQsortAsm[] = R"(; qsort: recursive quicksort of 20 words.
.entry start
start:
  la sp, 0x24000
  la r1, qs_in
  li r2, 0              ; lo
  li r3, 19             ; hi
  call qs_sort
  li r3, 0
  li r10, 0             ; checksum
  li r2, 20
  la r11, qs_out
qs_copy:
  bge r3, r2, qs_done
  slli r4, r3, 2
  add r5, r1, r4
  ld r6, [r5]
  add r7, r11, r4
  st r6, [r7]
  add r10, r10, r6
  addi r3, r3, 1
  b qs_copy
qs_done:
  la r7, qs_csum
  st r10, [r7]
  mov r1, r10
  sys 4                 ; emit checksum
  halt

; qs_sort(r2 = lo, r3 = hi); r1 = array base, preserved.
qs_sort:
  bge r2, r3, qs_ret
  push lr
  push r2
  push r3
  slli r4, r3, 2
  add r4, r1, r4
  ld r5, [r4]           ; pivot = a[hi]
  mov r6, r2            ; i = store index
  mov r7, r2            ; j
qs_part:
  bge r7, r3, qs_part_done
  slli r8, r7, 2
  add r8, r1, r8
  ld r9, [r8]
  bge r9, r5, qs_next
  slli r10, r6, 2
  add r10, r1, r10
  ld r11, [r10]
  st r9, [r10]
  st r11, [r8]
  addi r6, r6, 1
qs_next:
  addi r7, r7, 1
  b qs_part
qs_part_done:
  slli r10, r6, 2
  add r10, r1, r10
  ld r11, [r10]
  st r5, [r10]
  st r11, [r4]          ; swap pivot into place
  pop r3                ; hi
  pop r2                ; lo
  push r3
  push r6               ; pivot index
  mov r3, r6
  addi r3, r3, -1
  call qs_sort          ; left half
  pop r2
  addi r2, r2, 1
  pop r3
  call qs_sort          ; right half
  pop lr
qs_ret:
  ret

.org 0x10000
qs_in:
  .word 712, 9550, 18, 4203, 66, 8120, 345, 9999
  .word 4, 1287, 7040, 23, 5601, 888, 3102, 7
  .word 6425, 150, 2048, 511
.org 0x10100
qs_out:
  .space 80
qs_csum:
  .space 4
)";

// ---------------------------------------------------------------------
// matmul: 4x4 integer matrix multiply plus checksum.
// ---------------------------------------------------------------------
constexpr const char kMatmulAsm[] = R"(; matmul: C = A * B, 4x4 integers.
.entry start
start:
  la sp, 0x24000
  la r1, mm_a
  la r2, mm_b
  la r3, mm_c
  li r4, 0              ; i
mm_i:
  li r5, 0              ; j
mm_j:
  li r6, 0              ; k
  li r7, 0              ; accumulator
mm_k:
  slli r8, r4, 2
  add r8, r8, r6
  slli r8, r8, 2
  add r8, r1, r8
  ld r9, [r8]           ; a[i][k]
  slli r10, r6, 2
  add r10, r10, r5
  slli r10, r10, 2
  add r10, r2, r10
  ld r11, [r10]         ; b[k][j]
  mul r9, r9, r11
  add r7, r7, r9
  addi r6, r6, 1
  li r12, 4
  blt r6, r12, mm_k
  slli r8, r4, 2
  add r8, r8, r5
  slli r8, r8, 2
  add r8, r3, r8
  st r7, [r8]           ; c[i][j]
  addi r5, r5, 1
  li r12, 4
  blt r5, r12, mm_j
  addi r4, r4, 1
  li r12, 4
  blt r4, r12, mm_i
  li r4, 0
  li r10, 0             ; checksum
mm_sum:
  slli r8, r4, 2
  add r8, r3, r8
  ld r9, [r8]
  add r10, r10, r9
  addi r4, r4, 1
  li r12, 16
  blt r4, r12, mm_sum
  la r8, mm_csum
  st r10, [r8]
  mov r1, r10
  sys 4                 ; emit checksum
  halt

.org 0x10000
mm_a:
  .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
mm_b:
  .word 2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5
.org 0x10100
mm_c:
  .space 64
mm_csum:
  .space 4
)";

// ---------------------------------------------------------------------
// crc32: bitwise CRC-32 (reflected, poly 0xEDB88320) over 32 bytes.
// ---------------------------------------------------------------------
constexpr const char kCrc32Asm[] = R"(; crc32: bitwise CRC over 32 bytes.
.entry start
start:
  la sp, 0x24000
  la r1, crc_msg
  li r2, 32             ; byte count
  li r3, 0              ; index
  li r4, -1             ; crc = 0xffffffff
  la r5, 0xEDB88320     ; reflected polynomial
crc_byte:
  bge r3, r2, crc_done
  add r6, r1, r3
  ldb r7, [r6]
  xor r4, r4, r7
  li r8, 8
crc_bit:
  andi r9, r4, 1
  srli r4, r4, 1
  beq r9, r0, crc_nox
  xor r4, r4, r5
crc_nox:
  addi r8, r8, -1
  bne r8, r0, crc_bit
  addi r3, r3, 1
  b crc_byte
crc_done:
  li r9, -1
  xor r4, r4, r9        ; final complement
  la r8, crc_out
  st r4, [r8]
  mov r1, r4
  sys 4                 ; emit the CRC
  halt

.org 0x10000
crc_msg:
  .word 0x6f6f6721, 0x69206669, 0x6e6a6563, 0x74733a20
  .word 0x73636966, 0x69207377, 0x69666920, 0x31393438
.org 0x10100
crc_out:
  .space 4
)";

// ---------------------------------------------------------------------
// engine_control: integer PID speed controller for the jet-engine plant
// model (target/environment.h). Runs a 40-iteration mission: each loop
// reads the speed sensor from the IO IN page, computes an actuator
// command, writes it to the IO OUT page, kicks the watchdog and signals
// the iteration boundary where the plant model exchanges data. The
// paper's fail-silence studies classify experiments whose actuator
// stream diverges from the reference.
// ---------------------------------------------------------------------
constexpr const char kEngineControlBody[] = R"(ec_loop:
  ld r4, [r10]          ; sensor: measured speed (IO IN)
  li r5, 600            ; setpoint
  sub r6, r5, r4        ; error
  add r2, r2, r6        ; integral
  li r7, 2048           ; anti-windup clamp
  blt r2, r7, ec_iw_hi
  mov r2, r7
ec_iw_hi:
  li r7, -2048
  bge r2, r7, ec_iw_lo
  mov r2, r7
ec_iw_lo:
  sub r8, r6, r3        ; derivative
  mov r3, r6
  slli r9, r6, 3        ; P: error * 8
  srai r11, r2, 2       ; I: integral / 4
  add r9, r9, r11
  slli r11, r8, 1       ; D: derivative * 2
  add r9, r9, r11
  addi r9, r9, 500      ; feed-forward bias
  ; Executable assertion (paper's software EDM): a healthy controller
  ; never leaves this envelope; corrupted state trips it.
  li r7, -20000
  bge r9, r7, ec_a1
  mov r1, r9
  sys 2
ec_a1:
  li r7, 20000
  blt r9, r7, ec_a2
  mov r1, r9
  sys 2
ec_a2:
  bge r9, r0, ec_c1     ; clamp actuator into [0, 1000]
  li r9, 0
ec_c1:
  li r7, 1000
  blt r9, r7, ec_c2
  mov r9, r7
ec_c2:
  st r9, [r10+32]       ; actuator command (IO OUT)
  sys 3                 ; watchdog kick
  sys 1                 ; iteration boundary: plant model exchanges
  b ec_loop
)";

const std::string kEngineControlAsm =
    std::string(R"(; engine_control: PID engine controller, 40 iterations.
.entry start
start:
  la sp, 0x24000
  la r10, 0xFFFF0000    ; IO page: IN at +0, OUT at +32
  li r2, 0              ; integral
  li r3, 0              ; previous error
)") + kEngineControlBody;

// engine_control_ber adds best-effort recovery: EDM detections vector to
// trap_handler (the target enables trap-to-handler mode when the symbol
// is present), which counts the recovery, scrubs the controller state
// and resumes the mission.
const std::string kEngineControlBerAsm =
    std::string(R"(; engine_control_ber: PID controller with best-effort
; recovery: detections trap to trap_handler instead of failing stop.
.entry start
start:
  la sp, 0x24000
  la r10, 0xFFFF0000    ; IO page: IN at +0, OUT at +32
  li r2, 0              ; integral
  li r3, 0              ; previous error
)") + kEngineControlBody + R"(
trap_handler:
  sys 5                 ; count one best-effort recovery
  la sp, 0x24000        ; scrub controller state and resume the mission
  la r10, 0xFFFF0000
  li r2, 0
  li r3, 0
  sys 3
  b ec_loop
)";

struct Builtin {
  const char* name;
  std::string assembly;
  std::uint32_t output_base;
  std::uint32_t output_length;
  const char* environment;
  TerminationSpec termination;
};

const std::vector<Builtin>& Builtins() {
  static const std::vector<Builtin>* builtins = new std::vector<Builtin>{
      {"crc32", kCrc32Asm, 0x10100, 4, "", {100000, 0}},
      {"engine_control", kEngineControlAsm, 0, 0, "engine", {500000, 40}},
      {"engine_control_ber", kEngineControlBerAsm, 0, 0, "engine",
       {500000, 40}},
      {"fib", kFibAsm, 0x10000, 4, "", {20000, 0}},
      {"isort", kIsortAsm, 0x10100, 100, "", {100000, 0}},
      {"matmul", kMatmulAsm, 0x10100, 68, "", {100000, 0}},
      {"qsort", kQsortAsm, 0x10100, 84, "", {100000, 0}},
  };
  return *builtins;
}

}  // namespace

std::vector<std::string> BuiltinWorkloadNames() {
  std::vector<std::string> names;
  for (const Builtin& builtin : Builtins()) names.push_back(builtin.name);
  return names;
}

Result<WorkloadSpec> GetBuiltinWorkload(const std::string& name) {
  for (const Builtin& builtin : Builtins()) {
    if (name == builtin.name) {
      WorkloadSpec spec;
      spec.name = builtin.name;
      spec.assembly = builtin.assembly;
      spec.output_base = builtin.output_base;
      spec.output_length = builtin.output_length;
      spec.environment = builtin.environment;
      spec.termination = builtin.termination;
      return spec;
    }
  }
  return NotFoundError("no built-in workload named '" + name + "'");
}

namespace {

// One typed numeric key: an absent key reads 0, a leading '+' and "-0"
// are integers, and a value above `max` is out of range.
Result<std::uint64_t> ReadNumber(const ConfigSection& section,
                                 const char* key, std::uint64_t max) {
  const std::optional<std::string> text = section.GetString(key);
  if (!text) return std::uint64_t{0};
  std::string_view digits = StripAsciiWhitespace(*text);
  if (!digits.empty() && digits.front() == '+') digits.remove_prefix(1);
  std::optional<std::uint64_t> value = ParseUint64(digits);
  if (!value) {
    const std::optional<std::int64_t> signed_value = ParseInt64(*text);
    if (!signed_value) {
      return InvalidArgumentError(StrFormat(
          "%s must be an integer, got '%s'", key, text->c_str()));
    }
    if (*signed_value < 0) {
      return InvalidArgumentError(
          StrFormat("%s must be >= 0, got '%s'", key, text->c_str()));
    }
    value = static_cast<std::uint64_t>(*signed_value);
  }
  if (*value > max) {
    return InvalidArgumentError(
        StrFormat("%s must be <= %llu, got '%s'", key,
                  static_cast<unsigned long long>(max), text->c_str()));
  }
  return *value;
}

}  // namespace

WorkloadNumbers ReadWorkloadNumbers(const ConfigSection& section) {
  constexpr std::uint64_t k32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::uint64_t k64 = std::numeric_limits<std::uint64_t>::max();
  WorkloadNumbers numbers;
  const struct {
    const char* key;
    std::uint64_t max;
    std::uint64_t* value;
  } keys[] = {{"output_base", k32, &numbers.output_base},
              {"output_length", k32, &numbers.output_length},
              {"max_instructions", k64, &numbers.max_instructions},
              {"max_iterations", k64, &numbers.max_iterations}};
  for (const auto& key : keys) {
    const Result<std::uint64_t> value = ReadNumber(section, key.key, key.max);
    if (value.ok()) {
      *key.value = *value;
    } else {
      numbers.errors.push_back({key.key, value.status()});
    }
  }
  return numbers;
}

Result<WorkloadSpec> LoadWorkloadSpecFromFile(const std::string& path) {
  ASSIGN_OR_RETURN(const Config config, Config::LoadFile(path));
  const ConfigSection* section = config.FindSection("workload");
  if (section == nullptr) {
    return ParseError(path + ": missing [workload] section");
  }
  WorkloadSpec spec;
  spec.name = section->GetStringOr("name", "");
  if (spec.name.empty()) {
    return ParseError(path + ": workload has no name");
  }
  const auto assembly_file = section->GetString("assembly_file");
  if (!assembly_file) {
    return ParseError(path + ": workload has no assembly_file");
  }
  // assembly_file is relative to the .workload file's directory.
  std::string assembly_path = *assembly_file;
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos && !assembly_file->empty() &&
      (*assembly_file)[0] != '/') {
    assembly_path = path.substr(0, slash + 1) + *assembly_file;
  }
  std::ifstream in(assembly_path, std::ios::binary);
  if (!in) {
    return IoError("cannot read assembly file " + assembly_path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  spec.assembly = text.str();
  const WorkloadNumbers numbers = ReadWorkloadNumbers(*section);
  if (!numbers.errors.empty()) return numbers.errors.front().status;
  spec.output_base = static_cast<std::uint32_t>(numbers.output_base);
  spec.output_length = static_cast<std::uint32_t>(numbers.output_length);
  spec.environment = section->GetStringOr("environment", "");
  spec.termination.max_instructions = numbers.max_instructions;
  spec.termination.max_iterations = numbers.max_iterations;
  return spec;
}

}  // namespace goofi::target
