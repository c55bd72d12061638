#ifndef WIDGET_H
#define WIDGET_H
#endif
