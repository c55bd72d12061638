// astlint:allow(raw-thread): excuses code that was deleted
int width = 0;
