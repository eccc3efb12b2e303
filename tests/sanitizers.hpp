#pragma once
// BSK_TSAN is 1 when the test binary is built with -fsanitize=thread.
// gcc sets __SANITIZE_THREAD__ and (before gcc 14) has no __has_feature;
// clang has only __has_feature(thread_sanitizer). Tests use it to scale
// timing budgets and soak sizes to TSan's slowdown.

#if defined(__SANITIZE_THREAD__)
#define BSK_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BSK_TSAN 1
#endif
#endif
#ifndef BSK_TSAN
#define BSK_TSAN 0
#endif
